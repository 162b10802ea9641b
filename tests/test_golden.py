"""Golden output digests of a small fixed sweep.

A change that claims to keep the simulation's behaviour must leave these
bytes alone. The sweep runs three simulated days on an 8-node synthetic
trace in both the adaptive and a fixed non-scalable mode, with and without
the top relay removed. About 140 segments reach the destination in each run,
so the cumulative ACK grows to a few hundred ids, and its airtime on the
link moves the delivery delays written to every ``segments_*.csv``: sizing
the ACK one byte short per id changes all eight of them.

To re-pin after a deliberate behaviour change, print ``_digests(tmp_path)``
after ``run_experiment`` and paste the result below.
"""
import hashlib
from pathlib import Path

from oppvid.cli import run_experiment, validate_config

GOLDEN_SWEEP = """
duration = 259200
bandwidth = 100000
ttl = 43200
trace.synthetic.nodes = 8
trace.synthetic.mean_intercontact = 14400
trace.synthetic.mean_contact_duration = 300
adaptation.segment_period = 1800
adaptation.lookbacks = 3600,7200,14400
sizes.base_bytes_low = 20000
sizes.extraction_info_bytes = 300
sweep.modes = adaptive,fixed:medium
sweep.seeds = 1,2
sweep.removal_counts = 0,1
"""

GOLDEN_DIGESTS = {
    "segments_ttl43200_rm0_adaptive_seed1.csv":
        "d59eaf4a58598e885daf31e5f10b9a68287767a2320a699d9840dca593a4efe9",
    "segments_ttl43200_rm0_adaptive_seed2.csv":
        "b37c6f2ce8f2e11ab32c1ec03423e08f7f30c9cf1191f6ffda15d8801c8bb0e7",
    "segments_ttl43200_rm0_fixed-medium_seed1.csv":
        "82ab7a49a46dcd597926d8c4ccd88587b3bdd04fdcab1a661493cb73fbda4200",
    "segments_ttl43200_rm0_fixed-medium_seed2.csv":
        "7cb25662f05fe1c138ea3d42961bea807d0978313928d94818952356612a3178",
    "segments_ttl43200_rm1_adaptive_seed1.csv":
        "65d07542ee32981c89aeb87628a0cb3bd47caddcbaa564445d9f2f44139157e7",
    "segments_ttl43200_rm1_adaptive_seed2.csv":
        "bf5ae8bedd782302be52e56836b87e9c9bb9dbc006df9259d83c57199697e602",
    "segments_ttl43200_rm1_fixed-medium_seed1.csv":
        "abf5a4d1a485d1a372a313c9eb6ba5b752c5760f95c83043990a3ae612cc1ac1",
    "segments_ttl43200_rm1_fixed-medium_seed2.csv":
        "a39442453ff27a84e678f060c19a27873f6556a4dbc6cccf6d8b3a62f7a3dfd1",
    "summary.csv":
        "e1a0ba7da256a270bfb86380a31fe258c9fb47accef9f4033096aeb33437f75d",
}


def _digests(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


def test_fixed_sweep_outputs_match_golden_digests(tmp_path):
    config, issues = validate_config(GOLDEN_SWEEP)
    assert issues == []
    run_experiment(config, tmp_path)
    assert _digests(tmp_path) == GOLDEN_DIGESTS
