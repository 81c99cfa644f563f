"""The demos run end to end and print the same bytes: each one's stdout sha256 is pinned."""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEMOS = os.path.join(ROOT, "demos")

# sha256 of each demo's stdout, taken before the self-dual search built its
# orbits above n/2 from the trace dual; the demos are deterministic
DEMO_STDOUT_SHA256 = {
    "01_orbit_censuses.py": "bce1cf6efed3cd4d08546a53711f5add611f37ee315429eeb27189ae5d1501a0",
    "02_code_construction.py": "4184c5fe3b98dee737a7db267f273b63b9fd845cba164190aab7cd927fc1209f",
    "03_duality_and_self_dual.py":
        "2d10f044058cc2ab30a006639e98ca72d2624f81a4a58bdd351ec17bf931ed93",
}


def test_every_demo_is_pinned():
    assert sorted(DEMO_STDOUT_SHA256) == sorted(f for f in os.listdir(DEMOS) if f.endswith(".py"))


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_is_pinned(demo):
    """In a child of its own, as a user runs it, with every warning an error."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    child = subprocess.run([sys.executable, "-W", "error", os.path.join(DEMOS, demo)], env=env,
                           capture_output=True, timeout=120)
    assert child.returncode == 0, child.stderr.decode()
    assert hashlib.sha256(child.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo]
