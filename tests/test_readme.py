"""The README's examples run as written: both Python blocks and the simulate config."""

import json
import re
from pathlib import Path

from hsq import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def test_readme_python_blocks_run(capsys):
    blocks = _blocks("python")
    assert len(blocks) == 2
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})
    loss, accuracy = map(float, capsys.readouterr().out.split())
    assert 0.0 < loss and 0.0 <= accuracy <= 1.0


def test_readme_config_is_accepted():
    (config,) = _blocks("json")
    cfg, problem = cli._config_from_json(json.loads(config))
    assert cfg.scheme.name == "hsq" and problem.kind == "logistic" and problem.dim == 48
