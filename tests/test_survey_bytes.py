"""Every survey command of the benchmark against its recorded outputs.

``perfbench/references.json`` holds, per ``CONFIG:COMMAND`` key of the
survey workload, the exit status, the verdict of each experiment block and
the SHA-256 of each CSV written.  Each key is run here in process through
the CLI and compared with those records, so a change that must keep its
outputs byte-identical is checked by the suite itself; a re-recording of
the references updates this test with it.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from endspec import cli

ROOT = Path(__file__).resolve().parents[1]
SURVEY = json.loads((ROOT / "perfbench" / "references.json")
                    .read_text(encoding="utf-8"))["survey"]
_VERDICT_LINE = re.compile(r"^(\S+): ([A-Z]+) \(")


@pytest.mark.parametrize("key", sorted(SURVEY))
def test_survey_command_reproduces_recorded_bytes(tmp_path, capsys, key):
    config, command = key.rsplit(":", 1)
    status = cli.main([command, "--config", str(ROOT / config),
                       "--out", str(tmp_path), "--seed", "0"])
    verdicts = {}
    for line in capsys.readouterr().out.splitlines():
        m = _VERDICT_LINE.match(line)
        if m:
            verdicts[m.group(1)] = m.group(2).lower()
    csvs = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.glob("*.csv"))}
    ref = SURVEY[key]
    assert status == ref["status"]
    assert verdicts == ref["verdicts"]
    assert csvs == ref["csv_sha256"]
