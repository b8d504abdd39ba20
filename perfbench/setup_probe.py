"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is: import chemotaxsim, build the workload config, ``build_ic`` and
``initial_state`` (which does the first elliptic solve and fills the
factorisation and ``lru_cache`` entries); for sweep16 also start the
2-worker process pool, run a no-op on it and shut it down.  Prints the
seconds as one JSON number.

    python3 perfbench/setup_probe.py --workload NAME --seed N
"""
import argparse
import json
import sys
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from concurrent.futures import ProcessPoolExecutor

    import workloads
    from chemotaxsim.engine import build_ic
    from chemotaxsim.stepper import initial_state

    config = workloads.make_config(args.workload, args.seed)
    u0 = build_ic(config.grid, config.ic, default_seed=config.seed)
    initial_state(u0, config.params, config.elliptic)
    if args.workload == "sweep16":
        with ProcessPoolExecutor(max_workers=workloads.SWEEP_WORKERS) as pool:
            list(pool.map(abs, range(workloads.SWEEP_WORKERS)))
    print(json.dumps(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
