"""Honest-server statistics against the analytic targets.

Monte-Carlo over independent sessions at production-ish parameters, then a
side-by-side of measured rates (95% Wilson intervals) with what the math
says they should be: quiz wins at (1/3)cos^2(pi/8), dispatch at 0.8/0.1/0.1,
and a pass rate impaired only by the 2^-kappa Hadamard suffix event.
"""

import time

import cvqcsim.adversary as adv
from cvqcsim.adversary import OPT
from cvqcsim.harness import estimate_rates

SESSIONS = 20_000
KAPPA = 16
L = 8
SEED = b"honest-rates-demo"


def fmt(interval):
    point, low, high = interval
    return f"{point:.4f} [{low:.4f}, {high:.4f}]"


def main():
    t0 = time.perf_counter()
    report = estimate_rates(L, KAPPA, SESSIONS, adv.parse_strategy("honest"), SEED)
    elapsed = time.perf_counter() - t0
    rates = report.rates()

    print(f"{SESSIONS} honest sessions, kappa={KAPPA}, L={L}  ({elapsed:.1f}s)")
    print(f"master seed: {report.seed}  (pass --seed to the CLI to replay)\n")
    rows = [
        ("pass rate", rates["pass"], "~1 - eps"),
        ("quiz win rate", rates["win_quiz"], f"{OPT:.6f}"),
        ("freq test", rates["freq_test"], "0.800000"),
        ("freq quiz", rates["freq_quiz"], "0.100000"),
        ("freq comp", rates["freq_comp"], "0.100000"),
    ]
    print(f"{'measure':<14} {'measured (95% Wilson)':<28} target")
    for name, interval, target in rows:
        print(f"{name:<14} {fmt(interval):<28} {target}")
    print(f"\ncomp rounds: {report.comp_count}, decoded {report.comp_decoded}, "
          f"mean fidelity {report.comp_fidelity_mean}")
    print("\nonly honest losses: quiz rounds are lost cos^2-often by design, and")
    print(f"a test can fail when the Hadamard reply's oracle block is all-zero")
    print(f"(probability 2^-{KAPPA} per test, invisible at this sample size).")


if __name__ == "__main__":
    main()
