import importlib
import re
import tomllib
from pathlib import Path

import plas

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_declared_scripts_and_documented_modules_exist():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name!r} -> {target!r} is not callable"
    documented = re.findall(r":mod:`([\w.]+)`", plas.__doc__)
    assert documented
    for module in documented:
        importlib.import_module(module)
