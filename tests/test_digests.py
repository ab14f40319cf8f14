"""Fixed-seed digests of every subcommand's outputs, against the table in ``digests.json``.

Thirteen ``cli.main`` commands run in one temporary directory: ``simulate`` of each kind, ``fit`` by four routes,
the three ``benchmark`` kinds, ``finance`` and both ``diagnostics`` modes.  Each command's exit code and stdout
line, and the SHA-256 of every file the directory ends with, must equal the table's.  Timing fields are left out
of the digests: the ``wall_time`` column of a benchmark CSV, and the ``wall_time_*`` fields and ``config.out`` of
its summary.  ``fit`` and ``re-constant`` read a path this module writes with numpy alone, and ``finance`` a price
file written the same way, so their digests move only when the fit moves, not when the sampler does.

The digests are bit-level, so they hold for one numpy and BLAS build on one kind of CPU; the table records the
build, and another build fails the test.  A change that moves outputs on purpose rewrites the table with
``PYTHONPATH=src python tests/test_digests.py`` and lists the moved files.
"""

import contextlib
import datetime
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

from sparse_ou import cli, generate_sparse_drift
from sparse_ou.model import save_drift_json
from sparse_ou.sim import Trajectory, save_trajectory_csv

TABLE = Path(__file__).with_name("digests.json")
TRUTH = "truth.json"
COMMANDS = {
    "simulate sparse": ["simulate", "--d", 6, "--T", 20, "--seed", 3, "--out", "sparse.csv"],
    "simulate two-group": ["simulate", "--kind", "two-group", "--d", 6, "--T", 5, "--out", "two_group.csv"],
    "simulate shifted-antisym": ["simulate", "--kind", "shifted-antisym", "--d", 6, "--s", 2, "--T", 5,
                                 "--out", "antisym.csv"],
    "fit mle": ["fit", "--traj", "path.csv", "--method", "mle", "--truth", TRUTH, "--out", "mle.json"],
    "fit lasso 0.05": ["fit", "--traj", "path.csv", "--lambda", 0.05, "--truth", TRUTH, "--out", "lasso.json"],
    "fit adalasso theory": ["fit", "--traj", "path.csv", "--method", "adalasso", "--lambda", "theory",
                            "--out", "theory.json"],
    "fit adalasso cv": ["fit", "--traj", "path.csv", "--method", "adalasso", "--truth", TRUTH, "--out", "cv.json"],
    "benchmark sweep": ["benchmark", "--kind", "sweep", "--d-values", "4,6", "--t-values", "5,10",
                        "--dt-values", "0.01,0.05", "--reps", 2, "--jobs", 1, "--out", "sweep.csv"],
    "benchmark oracle_coverage": ["benchmark", "--kind", "oracle_coverage", "--d-values", 4, "--t-values", 10,
                                  "--reps", 2, "--jobs", 1, "--out", "oracle.csv"],
    "benchmark finance": ["benchmark", "--kind", "finance", "--d-values", 3, "--t-values", 10, "--reps", 2,
                          "--jobs", 1, "--out", "finance_kind.csv"],
    "finance": ["finance", "--prices", "prices.csv", "--out", "finance.json"],
    "diagnostics re-constant": ["diagnostics", "re-constant", "--traj", "path.csv", "--out", "re.json"],
    "diagnostics deviation-bounds": ["diagnostics", "deviation-bounds", "--drift", TRUTH, "--out", "dev.json"],
}


def build() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def write_inputs() -> None:
    """A sparse truth, an Euler path of it and a 260-day, 3-ticker price file, both drawn with numpy alone."""
    truth = generate_sparse_drift(6, 1, 5)
    save_drift_json(TRUTH, truth)
    rng = np.random.default_rng(11)
    dt, states = 0.01, [np.zeros(truth.dim)]
    for z in rng.normal(size=(2000, truth.dim)):
        states.append(states[-1] - dt * (truth.matrix @ states[-1]) + np.sqrt(dt) * z)
    save_trajectory_csv("path.csv", Trajectory(dt=dt, states=np.array(states)))
    log_p = np.cumsum(rng.normal(0.0002, 0.01, size=(260, 3)), axis=0)
    lines = ["date,S0,S1,S2"]
    for k, row in enumerate(log_p):
        day = datetime.date(2000, 1, 1) + datetime.timedelta(days=k)
        lines.append(f"{day}," + ",".join(f"{np.exp(v):.10f}" for v in row))
    Path("prices.csv").write_text("\n".join(lines) + "\n")


def digest(path: Path) -> str:
    """SHA-256 of the file, without the benchmark's timing fields."""
    if path.name.endswith(".summary.json"):
        summary = json.loads(path.read_text())
        del summary["config"]["out"]
        for group in summary["groups"].values():
            for key in [k for k in group if k.startswith("wall_time")]:
                del group[key]
        data = json.dumps(summary, indent=2).encode()
    elif path.suffix == ".csv" and path.read_text().startswith("method,"):
        rows = [line.split(",") for line in path.read_text().splitlines()]
        keep = [i for i, name in enumerate(rows[0]) if name != "wall_time"]
        data = "\n".join(",".join(row[i] for i in keep) for row in rows).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def run_all(directory: Path) -> dict:
    """Run every command in ``directory``; the table's commands and files sections."""
    commands, cwd = {}, os.getcwd()
    os.chdir(directory)  # relative paths keep the directory's name out of stdout and the fit JSON
    try:
        write_inputs()
        for name, argv in COMMANDS.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main([str(a) for a in argv])
            commands[name] = {"exit": code, "stdout": out.getvalue().strip()}
    finally:
        os.chdir(cwd)
    return {"commands": commands, "files": {p.name: digest(p) for p in sorted(directory.iterdir())}}


def test_outputs_match_the_digest_table(tmp_path):
    table = json.loads(TABLE.read_text())
    assert build() == table["build"], (
        f"the digests were recorded on {table['build']}, but this is {build()}: outputs are bit-level, so rewrite "
        f"the table on this build (PYTHONPATH=src python tests/test_digests.py) and check the diff"
    )
    got = run_all(tmp_path)
    moved_commands = [n for n in COMMANDS if got["commands"][n] != table["commands"].get(n)]
    assert not moved_commands, {n: (table["commands"].get(n), got["commands"][n]) for n in moved_commands}
    names = sorted(set(got["files"]) | set(table["files"]))
    moved_files = [n for n in names if got["files"].get(n) != table["files"].get(n)]
    assert not moved_files, f"outputs differ from {TABLE.name}: {moved_files}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        TABLE.write_text(json.dumps({"build": build(), **run_all(Path(tmp))}, indent=2) + "\n")
    print(f"wrote {TABLE}")
