"""The tests cross-check the library against ``perfbench/fftcheck.py``, the
numpy-only FFT oracle that also checks the benchmark's outputs; its folder
goes on the import path so that the tests can ``import fftcheck``.

Hypothesis runs derandomized and without an example database, so every run
draws the same examples; each test keeps its own ``max_examples``."""

import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
