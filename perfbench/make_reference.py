"""Write perfbench/reference/<workload>.csv.gz for the default seed.

    python3 perfbench/make_reference.py

Each file is the scans.csv that `experiment.run_experiment` writes for every
config of one cycle, concatenated in cycle order. run.py compares its
untraced rows against it when run with the default seed. The committed files
record the program's output when the benchmark was defined; regenerate them
only on purpose, and say why.
"""

import gzip
import shutil
import sys
import tempfile
from pathlib import Path

from run import HERE, load_program


def main() -> int:
    load_program()
    from spawncphd.experiment import run_experiment

    import workloads

    for name, workload in workloads.WORKLOADS.items():
        texts = []
        tmp = Path(tempfile.mkdtemp(dir=HERE.parent))
        try:
            for i, cfg in enumerate(workloads.configs(workload, workloads.DEFAULT_SEED)):
                texts.append(run_experiment(cfg, tmp / f"cfg{i}", jobs=1).read_text())
        finally:
            shutil.rmtree(tmp)
        target = HERE / "reference" / f"{name}.csv.gz"
        with open(target, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write("".join(texts).encode())
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
