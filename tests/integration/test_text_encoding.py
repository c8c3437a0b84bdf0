"""Text files the package writes name their encoding.

The SWF reader demands UTF-8, so the writer must not fall back to the
locale's encoding (a ``latin-1`` locale would write ``café`` as a byte
the reader rejects).  The check runs in a fresh interpreter with
``-X warn_default_encoding`` and EncodingWarning raised as an error, so
any ``open()`` on these paths that omits ``encoding=`` fails it.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import os, sys
from repro.campaign.platformrunner import run_campaign
from repro.core.model import ModelDatabase
from repro.workloads.swf import SWFRecord, read_swf, write_swf

work = sys.argv[1]
swf = os.path.join(work, "trace.swf")
records = [SWFRecord(1, 0, run_time=60, status=1), SWFRecord(2, 5, run_time=30, status=1)]
write_swf(records, swf, comments=["; site: café Zürich", "naïve ∑"])
comments, loaded = read_swf(swf)
assert comments == ["; site: café Zürich", "; naïve ∑"], comments
assert loaded == records, loaded
with open(swf, "rb") as handle:
    assert "café".encode("utf-8") in handle.read()

db_path = os.path.join(work, "model_database.csv")
aux_path = os.path.join(work, "auxiliary.csv")
database = ModelDatabase.from_campaign(run_campaign())
database.save(db_path, aux_path)
again = ModelDatabase.from_files(db_path, aux_path)
assert len(again) == len(database)
print("ok")
"""


def test_swf_and_model_files_name_their_encoding(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [
            sys.executable,
            "-X",
            "warn_default_encoding",
            "-W",
            "error::EncodingWarning",
            "-c",
            SCRIPT,
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        encoding="utf-8",
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "ok"
