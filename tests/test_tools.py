import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "tools" / "bench.py"


@pytest.mark.parametrize("pairs", ["0", "1"])
def test_bench_refuses_fewer_than_two_pairs(tmp_path, capsys, pairs):
    # each side's quartiles need two runs, so one pair used to crash after every run
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    with pytest.raises(SystemExit) as exc:
        bench.main(["--base", str(tmp_path), "--out", str(tmp_path / "b.json"), "--pairs", pairs])
    assert exc.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()
