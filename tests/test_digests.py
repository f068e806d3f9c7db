"""``tools/digests.py`` runs its whole battery and prints one SHA-256 per output.

The script's digests are compared between two checkouts, so the test
pins no digest. It runs the battery twice in one process, as
``python tools/digests.py`` does, and checks three things: both
printouts are the same, so builds from a warm memo of embedded noise
covariances, and grid calls that read the kept sweep of an equal grid
left by the first run, keep their bits; every output has one line under
its own name; and every line is well formed.
"""

import importlib.util
import re
from pathlib import Path

from pommkit import models

DIGESTS = Path(__file__).resolve().parent.parent / "tools" / "digests.py"

LAWS = ("stationary", "point_mass", "gaussian")
EXPECTED = (
    [f"kalman_{model}_{law}" for law in LAWS for model in ("scalar", "joint", "p2")]
    + [f"sweep_{param}_{part}" for param in ("b", "q_obs") for part in ("phi_r", "kalman")]
    + ["grid_profile_stationary", "grid_profile_gaussian", "grid_profile_b1.5"]
    + [f"quadrature_{model}_{law}" for model in ("sv", "ssm", "linear") for law in ("stationary", "point_mass")]
    + [f"bpf_{case}_{particles}" for particles in (512, 1024) for case in ("sv", "ssm_gaussian")]
    + ["mh_chain", "mh_acceptance", "mh_chain_near_unit_root", "mh_chain_b1.5"]
    + ["finite_enumeration", "finite_image_density", "finite_image_markov"]
    + [f"{call}_{case}" for case in ("record", "specs", "forward", "p2")
       for call in ("remoteness_far", "remoteness_whole", "grid_posterior", "amle_grid")]
    + ["delta_closed_grid"]
    + [f"envelope_{box}_{seed}" for box in ("box", "open_box") for seed in (0, 1)]
    + ["b6_entropy_floor_sv"]
    + [f"experiment_{name}" for name in ("audit.jsonl", "concentration.csv", "config.ini", "manifest.txt",
                                         "posterior_n100.csv", "posterior_n1600.csv", "posterior_n400.csv")]
    + ["cli_simulate", "cli_loglik_kalman", "cli_loglik_bpf", "cli_loglik_quadrature", "cli_posterior"]
    + [f"cli_experiment_{name}" for name in ("stdout", "audit.jsonl", "concentration.csv", "config.ini", "manifest.txt",
                                             "posterior_n20.csv", "posterior_n40.csv")]
    + ["cli_audit_ssm", "config_off_default"]
)


def test_prints_one_digest_per_output(capsys):
    spec = importlib.util.spec_from_file_location("digests", DIGESTS)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    assert digests.SWEEP_Q_OBS > models._SCALAR_R_MEMO  # the q_obs sweep evicts from the memo
    printouts = []
    for _ in range(2):  # the second run starts from the memo the first one left
        digests.main()
        printouts.append(capsys.readouterr().out)
    assert printouts[0] == printouts[1]
    lines = printouts[0].splitlines()
    assert [line.split(" ")[0] for line in lines] == EXPECTED
    for line in lines:
        assert re.fullmatch(r"\S+ [0-9a-f]{64}", line), line
