"""Suite-wide set-up: the test run leaves no bytecode cache in the checkout.

A ``__pycache__`` beside ``src/`` or ``perfbench/`` changes how long the
benchmark's set-up takes to import the package, so neither this process nor
the subprocesses the tests start write one.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
