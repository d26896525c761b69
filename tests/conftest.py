"""The tests cross-check the library against ``perfbench/fftcheck.py``, the
numpy-only FFT oracle that also checks the benchmark's outputs; its folder
goes on the import path so that the tests can ``import fftcheck``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
