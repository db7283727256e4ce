"""Every demo script runs to completion in-process and prints its story."""

import importlib.util
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_main_runs(path, capsys):
    spec = importlib.util.spec_from_file_location("demo_" + path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out.strip()


def test_all_demos_collected():
    assert len(DEMOS) == 5
