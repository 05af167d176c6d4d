"""Make `python -m conjspaces` subprocesses import this checkout's src/,
as pytest's `pythonpath` setting does for the tests themselves."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
