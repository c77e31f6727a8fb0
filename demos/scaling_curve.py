"""Session cost versus output count: the linear-scaling claim, measured.

Times honest computation-branch sessions over a doubling grid of L and
prints per-session cost plus the normalized doubling ratios (1.0 = exactly
linear).  The full acceptance grid goes to L=1024; this demo stops earlier
to stay snappy.
"""

from cvqcsim.harness import scaling_bench

KAPPA = 16
GRID = [64, 128, 256, 512]
SESSIONS_PER_L = 8


def main():
    rep = scaling_bench(KAPPA, GRID, SESSIONS_PER_L, b"scaling-demo")
    print(f"kappa={KAPPA}, {SESSIONS_PER_L} sessions per point (median, timed round-robin)\n")
    print(f"{'L':>6} {'ms/session':>12} {'us/gadget':>11}")
    for row in rep.rows:
        print(f"{row['L']:>6} {row['median_s'] * 1e3:>12.2f} {row['median_s'] / row['L'] * 1e6:>11.2f}")
    ratios = ", ".join(f"{r:.3f}" for r in rep.doubling_ratios)
    print(f"\ndoubling ratios (time ratio / L ratio): {ratios}")
    print("flat us/gadget and ratios near 1.0 = the whole client+server loop")
    print("is linear in the number of prepared states.")


if __name__ == "__main__":
    main()
