"""``repro.dsp`` loads its re-exports lazily (PEP 562).

The package's re-exports include the Butterworth filters, which import
``scipy.signal`` — most of the import time of every entry point. Only
code that touches a filter should pay for it.
"""

import os
import subprocess
import sys
from typing import List

import pytest

import repro
import repro.dsp


def _modules_after(code: str) -> List[str]:
    """Module names loaded by a fresh interpreter after running ``code``."""
    env = dict(os.environ)
    # Import the same ``repro`` this test imported.
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = source_root + os.pathsep + env.get("PYTHONPATH", "")
    probe = code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))"
    return subprocess.run(
        [sys.executable, "-c", probe],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    ).stdout.split()


def test_entry_points_do_not_load_scipy_signal():
    loaded = _modules_after(
        "import repro.localization, repro.scenarios.trials, repro.soak.driver"
    )
    assert "repro.localization" in loaded
    assert "scipy.signal" not in loaded


def test_filters_load_scipy_signal_on_first_design():
    # The relay's forwarding path imports the filter classes; the fleet
    # and serve layers import the relay package.
    loaded = _modules_after("import repro.relay, repro.fleet, repro.serve")
    assert "repro.dsp.filters" in loaded
    assert "scipy.signal" not in loaded
    loaded = _modules_after(
        "from repro.dsp.filters import LowPassFilter\n"
        "LowPassFilter(100e3, 2e6)"
    )
    assert "scipy.signal" in loaded


def test_units_submodule_alone_does_not_load_filters():
    loaded = _modules_after("from repro.dsp.units import db_to_linear")
    assert "repro.dsp.filters" not in loaded
    assert "scipy.signal" not in loaded


def test_package_reexports_resolve_to_their_submodules():
    from repro.dsp import BandPassFilter, db_to_linear
    from repro.dsp.filters import BandPassFilter as defined_filter
    from repro.dsp.units import db_to_linear as defined_units

    assert BandPassFilter is defined_filter
    assert db_to_linear is defined_units
    for name in repro.dsp.__all__:
        assert getattr(repro.dsp, name) is not None


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.dsp.no_such_name  # noqa: B018
