"""README.md's examples run as written."""

import json
import re
from pathlib import Path

from beliefgraph import MockOracle
from beliefgraph.serialize import load_mock_oracle

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_and_fixture_example(tmp_path, capsys):
    text = README.read_text()
    (quick_start,) = re.findall(r"```python\n(.*?)```", text, re.S)
    exec(quick_start, {})
    assert len(capsys.readouterr().out.splitlines()) == 3

    (fixture,) = [b for b in re.findall(r"```json\n(.*?)```", text, re.S) if '"negations"' in b]
    (tmp_path / "oracle.json").write_text(fixture)
    oracle = load_mock_oracle(tmp_path / "oracle.json")
    assert oracle == MockOracle(**json.loads(fixture))
    assert oracle.generate_premises("Alpha is a mammal.") == ["alpha is warm blooded"]
    assert oracle.score_statement("Alpha is a mammal.") == 0.9
