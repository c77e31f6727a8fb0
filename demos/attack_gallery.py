"""Detection signatures of every built-in server strategy.

Each strategy runs against three instrumented batches:

* quiz      — forced in-phase rounds; reports the win rate (delta=1) and the
              pass rate of the hidden-bias tests (delta in {0,4})
* bn/had    — forced branch-number rounds with the Hadamard coin, the test
              that catches servers holding outputs as one big superposition
* comp      — forced computation rounds; fraction decoded and mean fidelity

The phase_offset row also prints the analytic prediction computed by
expected_inph_rates, which is what the acceptance tolerances are set from.
"""

import cvqcsim.adversary as adv
from cvqcsim.adversary import OPT, expected_inph_rates, parse_phase_fn
from cvqcsim.protocol import run_pre_rspv

KAPPA = 10
L = 2
N_QUIZ = 4000
N_BN = 1500
N_COMP = 1000

STRATEGIES = [
    ("honest", "honest"),
    ("conjugate", "conjugate"),
    ("phase_offset bump:3", {"attack": "phase_offset", "g": "bump:3"}),
    ("ghz_collapse", "ghz_collapse"),
    ("random_response", "random_response"),
    ("corrupt_setup", "corrupt_setup"),
]


def quiz_batch(strat, tag):
    wins = quiz = passes = biased = 0
    for i in range(N_QUIZ):
        out = run_pre_rspv(strat, f"{tag}-q-{i}", kappa=KAPPA, L=L, force_plan="prep:inph")
        quiz += 1
        if out.quiz_delta == 1:
            wins += out.score
        else:
            biased += 1
            passes += out.flag
    return wins / quiz, passes / biased


def bn_batch(strat, tag):
    ok = 0
    for i in range(N_BN):
        out = run_pre_rspv(
            strat, f"{tag}-b-{i}", kappa=KAPPA, L=L, force_plan="prep:bn", force_coin="had"
        )
        ok += out.flag
    return ok / N_BN


def comp_batch(strat, tag):
    decoded = 0
    fid_sum = 0.0
    for i in range(N_COMP):
        out = run_pre_rspv(strat, f"{tag}-c-{i}", kappa=KAPPA, L=L, force_plan="comp")
        if out.outputs is not None and out.outputs.decoded is not None:
            decoded += 1
            fid_sum += out.outputs.fidelity()
    return decoded / N_COMP, (fid_sum / decoded) if decoded else float("nan")


def main():
    print(f"kappa={KAPPA} L={L}; {N_QUIZ} quiz + {N_BN} bn + {N_COMP} comp rounds each\n")
    header = f"{'strategy':<20} {'quiz win':>9} {'bias pass':>10} {'bn/had':>8} {'decoded':>8} {'fid':>6}"
    print(header)
    print("-" * len(header))
    for name, spec in STRATEGIES:
        strat = adv.parse_strategy(spec)
        win, bias = quiz_batch(strat, name)
        bn = bn_batch(strat, name)
        dec, fid = comp_batch(strat, name)
        print(f"{name:<20} {win:>9.4f} {bias:>10.4f} {bn:>8.4f} {dec:>8.3f} {fid:>6.3f}")

    pred = expected_inph_rates(parse_phase_fn("identity"), parse_phase_fn("bump:3"))
    print(f"\nhonest quiz target: {OPT:.4f}; a winning strategy cannot beat it.")
    print(f"phase_offset bump:3 analytic: win {pred['quiz_win']:.4f}, "
          f"bias pass {1 - pred['delta_fail']:.4f} — detectably low on both.")
    print("conjugate matches honest on every column (complex conjugation is")
    print("invisible to parity checks); ghz_collapse only cracks under bn/had.")


if __name__ == "__main__":
    main()
