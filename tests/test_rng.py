import hashlib

import numpy as np
import pytest

from sensecomm.rng import EVAL, TRAIN, Rng


class TestKeyedNormals:
    def test_layout_is_pinned(self):
        # the bits every channel realization is drawn from; a change here
        # changes every trained model and every reported figure
        z = Rng(0).keyed_normals(0, 0, 0, (4, 22))
        assert z[0, :4] == pytest.approx(
            [-0.00821159, 0.16812614, 0.94819559, 0.61367541], abs=5e-9)
        assert hashlib.sha256(z.tobytes()).hexdigest().startswith("8d8083b2c43b0de1")

    @pytest.mark.parametrize("width", [1, 4, 6, 22])
    @pytest.mark.parametrize("a, b", [(0, 7), (3, 4), (13, 300), (256, 512)])
    def test_rows_from_an_offset_are_the_same_rows(self, width, a, b):
        whole = Rng(5).keyed_normals(TRAIN, 2, 0, (b, width))
        part = Rng(5).keyed_normals(TRAIN, 2, a, (b - a, width))
        assert np.array_equal(part, whole[a:b])

    def test_keyed_by_seed_domain_and_link_only(self):
        rng = Rng(6)
        rng.standard_normal(10)  # the stream's state does not enter
        first = rng.keyed_normals(TRAIN, 0, 0, (8, 6))
        assert np.array_equal(first, Rng(6).keyed_normals(TRAIN, 0, 0, (8, 6)))
        # an eval seed equal to the training seed draws other rows
        others = [Rng(6).keyed_normals(EVAL, 0, 0, (8, 6)),
                  Rng(6).keyed_normals(TRAIN, 1, 0, (8, 6)),
                  Rng(7).keyed_normals(TRAIN, 0, 0, (8, 6))]
        assert all(not np.any(first == other) for other in others)

    def test_split_child_raises(self):
        child = Rng(9).split(1)[0]
        with pytest.raises(ValueError):
            child.keyed_normals(TRAIN, 0, 0, (2, 4))
