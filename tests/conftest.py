from pathlib import Path

import numpy as np
import pytest

from molseq.data import SyntheticSpec, generate_synthetic, prepare_split


@pytest.fixture(scope="session")
def tiny_spec():
    return SyntheticSpec(num_moas=2, drugs_per_moa=2, samples_per_drug=10, T=3, f=6, seed=11)


@pytest.fixture(scope="session")
def tiny_samples(tiny_spec):
    return generate_synthetic(tiny_spec)


@pytest.fixture(scope="session")
def tiny_split(tiny_samples):
    return prepare_split(tiny_samples, ratio=0.8, seed=11)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)



@pytest.fixture()
def fail_text_writes(monkeypatch):
    """``fail_text_writes(stem)``: from then on, ``Path.write_text`` to a name containing ``stem``
    writes the first half of its text and raises ``OSError("disk full")``; other writes go through."""
    write_text = Path.write_text

    def arm(stem: str) -> None:
        def failing(path, text, *args, **kwargs):
            if stem not in path.name:
                return write_text(path, text, *args, **kwargs)
            write_text(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", failing)

    return arm
