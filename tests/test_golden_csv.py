"""Golden stdout bytes: the determinism contract, pinned.

The CSV that ``branchsim simulate`` prints is a pure function of
``(spec, seed)``. Each spec below is one small run of an experiment kind; the
eight of them span the six motions. The spec has no population cap, so the
snapshots of capped runs, whose frozen replicas the engine keeps apart, are
pinned by the repr of run_replicas. The hashes were recorded before the
engine simulated replica blocks in lockstep groups and must not move under an
engine rewrite that keeps every block's random stream. numpy does not promise
the same Generator streams across its releases; these were recorded with
numpy 2.4.
"""

import hashlib

import pytest
import yaml

from branchsim import GaltonWatson, KilledOU, SimulationConfig, binary_law, run_replicas
from branchsim.cli import main

BINARY = {"pmf": [[0, 0.2], [2, 0.8]], "rate": 2.0}

GOLDEN = {
    "many-to-one-check/contact-mod-t": (
        {
            "experiment": "many-to-one-check",
            "motion": {"kind": "contact-mod-t", "d": 1, "gamma": 0.3},
            "branching": {"pmf": [[0, 0.2], [2, 0.8]], "rate": 1.0},
            "x0": [[0]],
            "snapshot_times": [0.5, 1.0],
            "replicas": 150,
            "spine_paths": 300,
            "seed": 31,
        },
        "1ec172a61962508c8d87e788ffc243bcbdb94965aa52051d66a92087cbe5f08e",
    ),
    "many-to-two-check/ergodic-ctmc": (
        {
            "experiment": "many-to-two-check",
            "motion": {"kind": "ergodic-ctmc"},
            "branching": BINARY,
            "x0": 0,
            "snapshot_times": [0.5, 1.0],
            "replicas": 200,
            "spine_paths": 2000,
            "seed": 32,
        },
        "24f8b8ceb56c8dd12e2a083debb6e51dbc39d476567e76ad7588365ab0b41e25",
    ),
    "martingale-curve/transient-ou": (
        {
            "experiment": "martingale-curve",
            "motion": {"kind": "transient-ou", "lambda": 0.5},
            "branching": BINARY,
            "x0": 0.5,
            "snapshot_times": [0.5, 1.0, 1.5],
            "replicas": 200,
            "seed": 33,
        },
        "554b17e7d1a76764e99905d8772881392ce7989ac7133a8e3b66cebd76d66464",
    ),
    "phi/killed-ou": (
        {
            "experiment": "phi",
            "motion": {"kind": "killed-ou", "lambda": 1.0},
            "branching": BINARY,
            "x0": 1.0,
            "snapshot_times": [1.0, 2.0],
            "replicas": 200,
            "seed": 34,
        },
        "62d22b7194eea1ea63f47dbac0ee32d235453ac39e9e3e9e56dcbfaa54dacf66",
    ),
    "l2-threshold-scan/killed-drift-bm": (
        {
            "experiment": "l2-threshold-scan",
            "motion": {"kind": "killed-drift-bm", "c": 1.0},
            "branching": {"pmf": [[0, 0.2], [2, 0.8]], "rate": 1.0},
            "x0": 1.0,
            "snapshot_times": [1.0, 2.0],
            "replicas": 100,
            "scan_ratios": [1.5, 2.5],
            "seed": 35,
        },
        "44714b81891fb5da03fe1182e9ce4772795c1f488daa74eeb954b0ca4df624ad",
    ),
    "qsd-fit/killed-ou": (
        {
            "experiment": "qsd-fit",
            "motion": {"kind": "killed-ou", "lambda": 1.0},
            "branching": BINARY,
            "x0": 1.0,
            "snapshot_times": [1.0, 2.0],
            "replicas": 150,
            "seed": 36,
        },
        "988c82c0906a180011fd8f9ddb8bf14ebc0116ce00e41e71102f1ae4a732ce0f",
    ),
    "eta-sigma/galton-watson": (
        {
            "experiment": "eta-sigma",
            "motion": {"kind": "galton-watson", "rho": [[-1, 0.6], [1, 0.4]]},
            "branching": {"pmf": [[0, 0.2], [2, 0.8]], "rate": 1.0},
            "x0": 1,
            "snapshot_times": [1.0, 2.0, 4.0],
            "horizon": 6.0,
            "replicas": 600,
            "seed": 37,
        },
        "cc6a56d5757296532b322a54901aa41e87519fb9a3295e66fa967d44dc8d1464",
    ),
    "min-h-diagnostic/killed-drift-bm": (
        {
            "experiment": "min-h-diagnostic",
            "motion": {"kind": "killed-drift-bm", "c": 1.0},
            "branching": BINARY,
            "x0": 1.0,
            "snapshot_times": [0.5, 1.0, 1.5],
            "replicas": 200,
            "seed": 38,
        },
        "f20c7f3e38ddcada3dbd816b2855b98489de3ea1486c8bc93fa002997bae1655",
    ),
}


def stdout_sha256(tmp_path, capsys, doc, threads):
    path = tmp_path / "spec.yaml"
    path.write_text(yaml.safe_dump(doc))
    capsys.readouterr()
    main(["simulate", str(path), "--threads", str(threads)])
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_stdout_bytes_match_the_recorded_hash(tmp_path, capsys, case):
    doc, digest = GOLDEN[case]
    assert stdout_sha256(tmp_path, capsys, doc, threads=1) == digest


def test_stdout_bytes_do_not_depend_on_threads(tmp_path, capsys):
    doc, digest = GOLDEN["eta-sigma/galton-watson"]
    assert stdout_sha256(tmp_path, capsys, doc, threads=2) == digest


@pytest.mark.parametrize(
    "motion, x0, digest",
    [
        (KilledOU(1.0), 1.0, "ba2f7d4f241c071a34a4c63467100997c27caf3b76d365cafbf3a02a7d532082"),
        (GaltonWatson(((-1, 0.6), (1, 0.4))), 2,
         "af4a0862a5a20bed1742fa0bc3623d5fb4b4ecf15fc801fc52a7afeb8b8d17bf"),
    ],
    ids=["killed-ou", "galton-watson"],
)
def test_capped_snapshots_match_the_recorded_hash(motion, x0, digest):
    cfg = SimulationConfig(horizon=1.5, snapshot_times=(0.5, 1.0, 1.5), population_cap=6, seed=41)
    replicas = run_replicas(motion, binary_law(0.2, 2.0), x0, cfg, 300)
    assert any(snaps[-1].truncated for snaps in replicas)
    assert hashlib.sha256(repr(replicas).encode()).hexdigest() == digest
