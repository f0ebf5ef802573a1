"""Start-up imports: the DSP-only path never loads ``scipy.signal``.

``scipy.signal`` is imported on first use through
:func:`repro.scipy_signal.sps`.  Each check runs in a fresh interpreter,
so a module-level import anywhere in the package (which would bring the
import's cost back to every DSP-only process) fails here.
``benchmarks/bench_startup.py`` times the same snippets.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

DSP_PACKET = """
from repro.core.testbench import TestbenchConfig, WlanTestbench
WlanTestbench(
    TestbenchConfig(rate_mbps=6, psdu_bytes=100, snr_db=17.0)
).measure_ber(n_packets=1)
"""

#: ``python -m repro --help``, which builds the whole CLI parser.
CLI_HELP = """
import runpy, sys
sys.argv = ["repro", "--help"]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit:
    pass
"""

RF_PACKET = """
from repro.channel.interference import InterferenceScenario
from repro.core.testbench import TestbenchConfig, WlanTestbench
from repro.rf.frontend import FrontendConfig
WlanTestbench(TestbenchConfig(
    rate_mbps=36, psdu_bytes=60, thermal_floor=True,
    frontend=FrontendConfig(), input_level_dbm=-60.0,
    interference=InterferenceScenario.adjacent(),
)).measure_ber(n_packets=1)
"""


def _imports_scipy_signal(code: str) -> bool:
    """Run ``code`` in a fresh interpreter; did it import scipy.signal?"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    probe = code + "\nimport sys\nprint('scipy.signal' in sys.modules)\n"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1] == "True"


def test_dsp_only_packet_does_not_import_scipy_signal():
    assert not _imports_scipy_signal(DSP_PACKET)


def test_cli_help_does_not_import_scipy_signal():
    assert not _imports_scipy_signal(CLI_HELP)


def test_rf_frontend_packet_reaches_the_accessor():
    assert _imports_scipy_signal(RF_PACKET)
