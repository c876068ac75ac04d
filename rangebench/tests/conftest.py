"""Make the program under test (``src/``) importable for the benchmark's tests.

Run from the repository root:  python3 -m pytest rangebench/tests -q
"""

import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
