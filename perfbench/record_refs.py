"""Record the output references the benchmark checks seed 0 against.

    python3 perfbench/record_refs.py [workload ...]

Runs one pass of each workload's full batch for seed 0 and writes every
op's observation to refs/<workload>-seed0.json. Run it only when a change
is meant to alter outputs, and say why in the change.
"""

import json
import shutil
import sys
import tempfile

import run
import workloads

SEED = 0


def main(names):
    run.use_checkout_src()
    run.TMP_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run.TMP_ROOT)
    try:
        for name in names or workloads.WORKLOADS:
            refs = {}
            for op in workloads.build(name, SEED, workdir):
                refs[op.key] = op.observe(op.call())
            path = run.refs_path(name, SEED)
            path.parent.mkdir(exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(refs, fh, indent=0, sort_keys=True)
                fh.write("\n")
            print(f"wrote {len(refs)} references to {path.relative_to(run.ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        run.TMP_ROOT.rmdir()


if __name__ == "__main__":
    main(sys.argv[1:])
