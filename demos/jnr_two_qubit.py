# demos/jnr_two_qubit.py
# The rank-2 joint numerical range of the five two-qubit observables
# XI, XZ, YI, YZ, ZI consists of exactly two points (0,0,0,0,+-1): a
# disconnected set, unlike the always-connected rank-1 case.
import numpy as np

from klscope.optimizer import OptimizerConfig, jnr_feasibility


def main():
    words = ("XI", "XZ", "YI", "YZ", "ZI")

    points = jnr_feasibility(words, K=2, config=OptimizerConfig(seed=0, restarts=60))
    print("rank-2 feasible tuples over 60 random starts:")
    for p in points:
        print(f"  {np.round(p.values, 9)}  residual {p.residual:.1e}  hits {p.hits}")
    print("  -> two isolated points; the rank-2 range is disconnected")

    rank1 = jnr_feasibility([words[-1]], K=1,
                            config=OptimizerConfig(seed=1, restarts=40, max_iters=5))
    vals = sorted(p.values[0] for p in rank1)
    print(f"\nrank-1 range of ZI alone: {len(vals)} sampled values in "
          f"[{vals[0]:+.3f}, {vals[-1]:+.3f}] (a filled interval)")


if __name__ == "__main__":
    main()
