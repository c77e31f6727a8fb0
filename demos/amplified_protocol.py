"""The amplification stack end to end at desk scale.

Shows the win-count threshold arithmetic, runs honest and always-lose
servers through preRSPVTemp, then a full RSPV run that ends with verified
output states, and closes with the tail-bound numbers that justify the
config choices.
"""

from random import Random

import cvqcsim.adversary as adv
from cvqcsim.adversary import OPT
from cvqcsim.amplify import (
    AmplificationConfig,
    chernoff_bound,
    run_pre_rspv_temp,
    run_rspv,
    win_threshold,
)
from cvqcsim.protocol import P_QUIZ

KAPPA = 14
L = 2
CFG = AmplificationConfig(n_temp=600)  # smaller than default, still sharp


def main():
    thr = win_threshold(CFG)
    mean = CFG.n_temp * P_QUIZ * OPT
    print(f"config: n_temp={CFG.n_temp} win_slack={CFG.win_slack} n_rspv={CFG.n_rspv}")
    print(f"honest mean wins {mean:.2f}, accept threshold {thr:.2f} "
          f"(margin {mean - thr:.2f} ~ {(mean - thr) / mean ** 0.5:.1f} sigma)\n")

    for rep in range(3):
        res = run_pre_rspv_temp(L, KAPPA, CFG, adv.parse_strategy("honest"), Random(f"amp-h-{rep}"))
        picked = f"picked #{res.picked}" if res.picked is not None else "no pick"
        kind = "comp" if res.outputs is not None else "not comp"
        print(f"honest temp {rep}: flag={res.flag} wins={res.wins:3d} {picked} ({kind})")
    for rep in range(3):
        res = run_pre_rspv_temp(L, KAPPA, CFG, adv.parse_strategy("always_lose"), Random(f"amp-a-{rep}"))
        print(f"always_lose temp {rep}: flag={res.flag} after {res.sessions_run} session(s)")

    print("\nfull RSPV (repeat temp blocks until a computation round is sampled):")
    res = run_rspv(L, KAPPA, CFG, adv.parse_strategy("honest"), Random("amp-rspv"))
    print(f"flag={res.flag} after {res.temp_calls} temp call(s)")
    if res.outputs is not None:
        print(f"prepared |+_theta> states, theta = {res.outputs.client_thetas}, "
              f"fidelity {res.outputs.fidelity():.1f}")

    print("\ntail bound e^(-d^2 N / 4) (valid as a bound in the p~1/2 regime):")
    for d, n in ((0.1, 440), (0.1, 1600), (0.25, 2000)):
        print(f"  delta={d:<5} N={n:<5} -> {chernoff_bound(0.5, d, n):.3e}")
    print("reference-scale session counts close the same inequalities with")
    print("astronomically smaller slack; only the formula is shared.")


if __name__ == "__main__":
    main()
