"""Every demo script runs to completion in-process and prints its story,
byte for byte: the demos' output is a contract, frozen as sha256 digests."""

import hashlib
import importlib.util
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# sha256 of each demo's stdout
DEMO_GOLDEN = {
    "census": "b64d69386184fef09eeff935b28449acd0f022fd64d3dce892bc51c5b76b18f2",
    "convolution": "969cd14a6d1a58ea2b4db883a1b431f0f8ff932f599c47da9661774fc484918f",
    "equation_checks": "997d322f840341850c699c361f3993167a12f11cbfff9254d2cbab54edec6498",
    "gradings": "890c30c49fc18d97b98a878be206f2bfb7882303af8e504daf3309766a171318",
    "universal_bialgebra": "489259d605b957cc93812afec9a8f608c4b2d39fab9ff756fcc7b2509a7b9d01",
}


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_main_runs(path, capsys):
    spec = importlib.util.spec_from_file_location("demo_" + path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    assert out.strip()
    assert hashlib.sha256(out.encode()).hexdigest() == DEMO_GOLDEN[path.stem]


def test_all_demos_collected():
    assert len(DEMOS) == 5
    assert sorted(p.stem for p in DEMOS) == sorted(DEMO_GOLDEN)
