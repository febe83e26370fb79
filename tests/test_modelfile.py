from pathlib import Path

import pytest

from logdetml.cli import main
from logdetml.modelfile import load_model, save_model

IONOSPHERE = Path(__file__).parent / "data" / "ionosphere.csv"


@pytest.fixture(scope="module")
def small_ionosphere(tmp_path_factory):
    """Every sixth ionosphere row: 59 points, both classes."""
    rows = IONOSPHERE.read_text().splitlines()[::6]
    path = tmp_path_factory.mktemp("data") / "ionosphere_small.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize(
    "kind, flags",
    [
        ("linear", ["--space", "linear"]),
        ("kernel", ["--kernel", "gaussian"]),
        # a 20-centre basis cannot reach every pair direction of this kernel
        pytest.param("iplr", ["--kernel", "gaussian", "--basis", "kmeans:20"],
                     marks=pytest.mark.filterwarnings("ignore::logdetml.lowrank.BasisWarning")),
    ],
    ids=["linear", "kernel", "iplr"],
)
def test_save_load_save_is_byte_identical(small_ionosphere, tmp_path, kind, flags):
    trained = tmp_path / "trained.model"
    code = main(["train", "--data", str(small_ionosphere), "--label-col", "last",
                 "--per-class", "10", "--max-sweeps", "5", "--out", str(trained), *flags])
    assert code == 0
    mf = load_model(trained)
    assert mf.kind == kind
    resaved = tmp_path / "resaved.model"
    save_model(resaved, mf)
    assert resaved.read_bytes() == trained.read_bytes()
