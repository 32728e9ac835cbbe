"""One cold set-up of the program, timed inside a fresh interpreter.

    python3 bench/probe.py SRC_DIR WORKLOAD [DATASET [STORE]]

Times ``import cges`` plus the workload's set-up (dataset load and record
store open) and prints the elapsed seconds, rescaled to a quiet host by
``calibrate.HostClock``, as its only output line.  The benchmark starts it
several times per run and reports the median.
"""

import sys

from calibrate import HostClock


def main() -> None:
    src, workload, *paths = sys.argv[1:]
    sys.path.insert(0, src)
    with HostClock() as clock:
        set_up(workload, paths)
    print(clock.scaled_s)


def set_up(workload: str, paths: list) -> None:
    import cges  # noqa: F401  (the import is what is being timed)
    from cges import genmodel, harness, llmclient

    if workload == "replay_study":
        harness.load_dataset(paths[0])
        llmclient.RecordStore.open_replay(paths[1])
    elif workload == "live_stub":
        harness.load_dataset(paths[0])
        llmclient.RecordStore.open_record(paths[1])
    else:
        genmodel.RealisticGenConfig(
            k=2,
            answer_law=genmodel.PointSimplex((0.4, 0.6)),
            confidence_noise=genmodel.PointMass(0.3),
        )


if __name__ == "__main__":
    main()
