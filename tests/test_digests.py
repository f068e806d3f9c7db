"""``tools/digests.py`` runs its whole battery and prints one SHA-256 per output.

The script's digests are compared between two checkouts, so the test
pins no digest: it runs the battery once, as ``python tools/digests.py``
does, and checks that every output of the battery has one well-formed
line under its own name.
"""

import importlib.util
import re
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent.parent / "tools" / "digests.py"

LAWS = ("stationary", "point_mass", "gaussian")
EXPECTED = (
    [f"kalman_{model}_{law}" for law in LAWS for model in ("scalar", "joint", "p2")]
    + ["grid_profile_stationary", "grid_profile_gaussian"]
    + [f"quadrature_{model}_{law}" for model in ("sv", "ssm", "linear") for law in ("stationary", "point_mass")]
    + [f"bpf_{case}_{particles}" for particles in (512, 1024) for case in ("sv", "ssm_gaussian")]
    + ["mh_chain", "mh_acceptance", "finite_enumeration", "finite_image_density", "finite_image_markov"]
    + [f"experiment_{name}" for name in ("audit.jsonl", "concentration.csv", "config.ini", "manifest.txt",
                                         "posterior_n100.csv", "posterior_n1600.csv", "posterior_n400.csv")]
)


def test_prints_one_digest_per_output(capsys):
    spec = importlib.util.spec_from_file_location("digests", DIGESTS)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    digests.main()
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ")[0] for line in lines] == EXPECTED
    for line in lines:
        assert re.fullmatch(r"\S+ [0-9a-f]{64}", line), line
