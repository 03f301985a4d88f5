import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

import matchfactor.tensor as tensor_module
from matchfactor import (
    as_tensor3,
    frobenius_norm,
    khatri_rao,
    kruskal_tensor,
    load_tensor3,
    planted_factors,
    save_tensor3,
    unfold,
)
from matchfactor.tensor import as_matrix

from helpers import (
    khatri_rao_by_loops,
    kruskal_by_loops,
    load_tensor3_by_json_load,
    save_tensor3_by_json_dump,
    traced_peak,
    unfold_by_loops,
)


class TestValidation:
    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="3-way"):
            as_tensor3(np.zeros((2, 2)))
        with pytest.raises(ValueError, match=r"^expected a matrix, got ndim=3$"):
            as_matrix(np.zeros((2, 2, 2)))
        # and a zero-length axis
        with pytest.raises(ValueError, match=r"^all dimensions must be positive, got shape"):
            as_tensor3(np.zeros((2, 0, 2)))
        with pytest.raises(ValueError, match=r"^matrix dimensions must be positive, got shape"):
            as_matrix(np.zeros((0, 2)))

    def test_rejects_nan(self):
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            as_tensor3(t)
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            as_matrix(t[0])

    def test_rejects_negative_when_required(self):
        t = np.zeros((2, 2, 2))
        t[1, 1, 1] = -0.5
        with pytest.raises(ValueError, match="non-negative"):
            as_tensor3(t, require_nonnegative=True)


class TestUnfoldFold:
    def test_single_entry(self):
        t = np.array([[[5.0]]])
        m = unfold(t, 1)
        assert m.shape == (1, 1)
        assert m[0, 0] == 5.0

    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="mode"):
            unfold(np.zeros((2, 2, 2)), 0)
        with pytest.raises(ValueError, match="mode"):
            unfold(np.zeros((2, 2, 2)), 4)

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_matches_index_loop_oracle(self, mode):
        i, j, k = np.meshgrid(range(2), range(2), range(2), indexing="ij")
        t = (i + 2 * j + 4 * k).astype(float)
        np.testing.assert_array_equal(unfold(t, mode), unfold_by_loops(t, mode))

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_matches_oracle_rectangular(self, mode):
        t = np.random.default_rng(3).random((3, 4, 5))
        np.testing.assert_array_equal(unfold(t, mode), unfold_by_loops(t, mode))

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_roundtrip_fold_unfold(self, mode):
        # every entry once, at the place of the index formula
        t = np.random.default_rng(0).random((3, 4, 5))
        m = unfold(t, mode)
        np.testing.assert_array_equal(m, unfold_by_loops(t, mode))
        np.testing.assert_array_equal(np.sort(m, axis=None), np.sort(t, axis=None))

    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip_random_dims(self, seed):
        rng = np.random.default_rng(seed)
        dims = tuple(rng.integers(1, 9, size=3))
        t = rng.random(dims)
        for mode in (1, 2, 3):
            np.testing.assert_array_equal(unfold(t, mode), unfold_by_loops(t, mode))

    def test_fold_single_entry(self):
        for mode in (1, 2, 3):
            np.testing.assert_array_equal(unfold(np.array([[[7.0]]]), mode), [[7.0]])

    def test_mode3_fold_matches_oracle(self):
        # the tensor whose mode-3 unfolding is m: t[i, j, k] = m[k, i + 3 j]
        rng = np.random.default_rng(12)
        m = rng.random((5, 12))
        t = m.reshape(5, 4, 3).transpose(2, 1, 0)
        np.testing.assert_array_equal(unfold_by_loops(t, 3), m)
        np.testing.assert_array_equal(unfold(t, 3), m)


class TestKhatriRao:
    def test_scalar(self):
        np.testing.assert_array_equal(khatri_rao([[2.0]], [[3.0]]), [[6.0]])

    def test_identity_pair_matches_loop_oracle(self):
        a = np.eye(2)
        b = np.eye(2)
        got = khatri_rao(a, b)
        assert got.shape == (4, 2)
        np.testing.assert_array_equal(got, khatri_rao_by_loops(a, b))

    def test_random_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.random((3, 4))
        b = rng.random((5, 4))
        np.testing.assert_allclose(khatri_rao(a, b), khatri_rao_by_loops(a, b), rtol=0)

    def test_ones_is_neutral(self):
        a = np.random.default_rng(1).random((4, 3))
        np.testing.assert_array_equal(khatri_rao(a, np.ones((1, 3))), a)

    def test_column_mismatch(self):
        with pytest.raises(ValueError, match="column mismatch"):
            khatri_rao(np.ones((2, 3)), np.ones((2, 2)))

    @pytest.mark.parametrize("seed", range(3))
    def test_gram_identity(self, seed):
        # (A (.) B)^T (A (.) B) == (A^T A) * (B^T B)
        rng = np.random.default_rng(seed)
        a = rng.random((6, 4))
        b = rng.random((5, 4))
        kr = khatri_rao(a, b)
        np.testing.assert_allclose(kr.T @ kr, (a.T @ a) * (b.T @ b), atol=1e-10)


class TestKruskal:
    def test_rank_one_all_ones(self):
        t = kruskal_tensor([1.0], [[1.0]], [[1.0]], [[1.0]])
        np.testing.assert_array_equal(t, np.ones((1, 1, 1)))

    def test_rank_one_outer_product(self):
        a = np.array([[1.0], [2.0]])
        b = np.ones((2, 1))
        c = np.array([[1.0], [0.0]])
        t = kruskal_tensor([2.0], a, b, c)
        for i in range(2):
            for j in range(2):
                assert t[i, j, 0] == 2.0 * a[i, 0]
                assert t[i, j, 1] == 0.0

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(8)
        weights = rng.random(3)
        a, b, c = rng.random((4, 3)), rng.random((3, 3)), rng.random((5, 3))
        got = kruskal_tensor(weights, a, b, c)
        expect = kruskal_by_loops(weights, a, b, c)
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="agree"):
            kruskal_tensor([1.0, 1.0], np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 1)))

    def test_unfolding_identity(self):
        # X_(1) = A diag(w) (C (.) B)^T under the fixed convention
        rng = np.random.default_rng(2)
        w = rng.random(2)
        a, b, c = rng.random((3, 2)), rng.random((4, 2)), rng.random((5, 2))
        t = kruskal_tensor(w, a, b, c)
        np.testing.assert_allclose(
            unfold(t, 1), (a * w) @ khatri_rao(c, b).T, atol=1e-12
        )

    @staticmethod
    def paper_and_random_factors():
        """The paper's planted factors, and random ones at the package's
        four features, ranks 1 to 6."""
        users, features, time, _ = planted_factors(961, 4, 100, 3, seed=0)
        yield np.ones(3), users, features, time
        rng = np.random.default_rng(21)
        for dims, rank in [((961, 4, 100), 5), ((36, 4, 24), 3), ((40, 4, 10), 2), ((7, 4, 3), 6)]:
            yield rng.random(rank), *(rng.random((d, rank)) for d in dims)
        yield rng.random(1), rng.random((20, 1)), rng.random((4, 1)), rng.random((12, 1))

    def test_equals_the_fold_of_the_mode_1_product(self):
        # the same R-term product per entry, summed in the same order, as the
        # mode-1 unfolding identity
        for w, a, b, c in self.paper_and_random_factors():
            expect = (a * w) @ khatri_rao(c, b).T
            assert np.array_equal(unfold(kruskal_tensor(w, a, b, c), 1), expect)

    def test_holds_about_one_tensor(self):
        w, a, b, c = next(self.paper_and_random_factors())
        t = kruskal_tensor(w, a, b, c)
        assert t.flags.c_contiguous
        assert traced_peak(lambda: kruskal_tensor(w, a, b, c)) < 1.1 * t.nbytes


class TestFrobenius:
    def test_zero(self):
        assert frobenius_norm(np.zeros((2, 3, 4))) == 0.0

    def test_single_entry(self):
        assert frobenius_norm(np.full((1, 1, 1), 3.0)) == 3.0

    def test_all_ones_2x2x2(self):
        assert frobenius_norm(np.ones((2, 2, 2))) == pytest.approx(np.sqrt(8.0))

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_layout_independent(self, mode):
        t = np.random.default_rng(4).random((3, 4, 5))
        assert frobenius_norm(t) == pytest.approx(
            float(np.linalg.norm(unfold(t, mode))), rel=1e-14
        )


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        t = np.random.default_rng(9).random((3, 4, 5))
        path = tmp_path / "t.json"
        save_tensor3(path, t, metadata={"note": "fixture"})
        back, meta = load_tensor3(path)
        np.testing.assert_array_equal(back, t)
        assert meta == {"note": "fixture"}

    def test_header_fields(self, tmp_path):
        path = tmp_path / "t.json"
        save_tensor3(path, np.zeros((2, 3, 4)))
        doc = json.loads(path.read_text())
        assert doc["format"] == "dense-tensor3"
        assert doc["version"] == 1
        assert doc["dims"] == [2, 3, 4]
        assert doc["layout"] == "first-index-slowest"

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="container"):
            load_tensor3(path)


VALID_CONTAINER = (
    '{"dims": [1, 1, 2], "format": "dense-tensor3", "layout": "first-index-slowest", '
    '"metadata": {}, "values": [0.5, 1], "version": 1}'
)


def container(**fields):
    """The text of ``VALID_CONTAINER`` with fields replaced (or, for
    ``None``, removed)."""
    doc = json.loads(VALID_CONTAINER)
    doc.update(fields)
    return json.dumps({k: v for k, v in doc.items() if v is not None})


# (text, what the error names): containers that load_tensor3 must refuse
MALFORMED_CONTAINERS = {
    "list-document": ("[1, 2]", "container"),
    "invalid-json": ('{"dims": [1', "JSON"),
    "deep-json": ("[" * 100_000 + "]" * 100_000, "JSON"),
    "bool-version": (container(version=True), "version True"),
    "float-version": (container(version=1.0), "version 1.0"),
    "foreign-layout": (container(layout="first-index-fastest"), "layout 'first-index-fastest'"),
    "list-layout": (container(layout=["first-index-slowest"]), "layout"),
    "missing-dims": (container(dims=None), "dims"),
    "two-dims": (container(dims=[1, 2]), "dims"),
    "zero-dim": (container(dims=[1, 0, 2]), "dims"),
    "float-dim": (container(dims=[1, 1, 2.0]), "dims"),
    "string-dim": (container(dims=[1, 1, "2"]), "dims"),
    "bool-dim": (container(dims=[True, 1, 2]), "dims"),
    "dims-not-list": (container(dims=2), "dims"),
    "missing-values": (container(values=None), "values"),
    "values-not-list": (container(values="0.5 1"), "values"),
    "string-value": (container(values=[0.5, "1"]), "values"),
    "bool-value": (container(values=[0.5, True]), "values"),
    "null-value": (container(values=[0.5, None]), "values"),
    "nested-values": (container(values=[[0.5], [1]]), "values"),
    "huge-int-value": (container(values=[0.5, 10**400]), "values"),
    "nan-value": (container(values=[0.5, float("nan")]), "values"),
    "value-count": (container(values=[0.5]), "value count"),
    "metadata-list": (container(metadata=[1]), "metadata"),
    "metadata-string": (container(metadata="x"), "metadata"),
}


class TestMalformedContainer:
    def test_valid_fixture_loads(self, tmp_path):
        path = tmp_path / "t.json"
        for text in (VALID_CONTAINER, container(layout=None)):  # no layout: first index slowest
            path.write_text(text)
            t, meta = load_tensor3(path)
            np.testing.assert_array_equal(t, [[[0.5, 1.0]]])
            assert meta == {}

    @pytest.mark.parametrize("case", sorted(MALFORMED_CONTAINERS))
    def test_raises_value_error_naming_path(self, tmp_path, case):
        text, names = MALFORMED_CONTAINERS[case]
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=names) as exc:
            load_tensor3(path)
        assert str(path) in str(exc.value)


# number tokens a values list may hold, and tokens that are not finite
# numbers, each spelled as JSON spells it (or almost: NaN and Infinity)
NUMBER_TOKENS = (
    hst.sampled_from(["0", "-0", "7", "-12", "0.5", "-0.0", "1e3", "2.5E-3", "-1E+2", "1.5e-310"])
    | hst.integers(-(2**80), 2**80).map(str)
    | hst.floats(allow_nan=False, allow_infinity=False).map(repr)
)
ODD_TOKENS = hst.sampled_from(
    [
        *("NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, "-" + "9" * 330),
        *("true", "false", "null", '"a,b"', '"]"', '"1"', "[1, 2]", "[]", "[[0.5]]", "{}"),
        *("1.", "01", "+1", ".5", "1e", "--1"),  # not JSON
    ]
)
SPACES = hst.sampled_from(["", "", " ", "\n", "\t", "\r\n", " \n  "])
METADATA_TEXTS = hst.sampled_from(
    [
        *("{}", '{"player_ids": ["a", "b,]"]}', '{"values": [1, "x"], "dims": [0]}'),
        *('{"deep": [[[1, {"k": [2]}]]]}', "[1]", '"x"', "null"),
    ]
)


@hst.composite
def container_texts(draw):
    """The bytes of a container, most of them valid: varied whitespace and
    key order, repeated ``values`` and ``dims`` keys (the last one counts),
    odd value tokens, and some cut short or holding a byte that is not UTF-8."""
    def space():
        return draw(SPACES)

    def json_list(tokens):
        items = ",".join(f"{space()}{token}{space()}" for token in tokens)
        return f"[{items or space()}]"

    def values():
        tokens = draw(hst.lists(NUMBER_TOKENS, min_size=1, max_size=12))
        if draw(hst.integers(0, 3)) == 0:
            tokens.insert(draw(hst.integers(0, len(tokens))), draw(ODD_TOKENS))
        return json_list(tokens), len(tokens)

    values_text, n = values()
    dims = draw(hst.permutations([1, 1, n]))
    if draw(hst.integers(0, 4)) == 0:
        dims = draw(hst.lists(hst.integers(-1, 3), min_size=2, max_size=4))
    members = [
        ("format", draw(hst.sampled_from(['"dense-tensor3"'] * 4 + ['"dense-tensor2"']))),
        ("version", draw(hst.sampled_from(["1"] * 4 + ["2", "1.0", "true"]))),
        ("dims", json_list(map(str, dims))),
        ("layout", draw(hst.sampled_from(['"first-index-slowest"'] * 4 + ['"row-major"']))),
        ("values", values_text),
    ]
    if draw(hst.booleans()):
        members.append(("metadata", draw(METADATA_TEXTS)))
    for key in draw(hst.lists(hst.sampled_from(["values", "dims"]), max_size=2)):
        members.insert(
            draw(hst.integers(0, len(members))),
            (key, values()[0] if key == "values" else json_list(map(str, dims[::-1]))),
        )
    members = draw(hst.permutations(members))
    body = ",".join(f'{space()}"{key}"{space()}:{space()}{value}{space()}' for key, value in members)
    data = f"{space()}{{{body}}}{space()}".encode("utf-8")
    damage = draw(hst.integers(0, 19))
    at = draw(hst.integers(0, len(data)))
    if damage == 0:
        data = data[:at]
    elif damage == 1:
        data = data[:at] + draw(hst.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    return data


def load_outcome(load, path):
    """The array (bytes and shape) and metadata ``load(path)`` gives, or its
    ``ValueError``."""
    try:
        t, metadata = load(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return t.dtype, t.shape, t.tobytes(), metadata


class TestReaderMatchesJsonLoad:
    """``load_tensor3`` walks the container a block at a time, yet gives the
    bits, or the error, of the whole document through ``json.load``."""

    @pytest.fixture(params=[None, 1, 7, 64], ids=["default-block", "block-1", "block-7", "block-64"])
    def block(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(tensor_module, "_BLOCK", request.param)

    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=container_texts())
    def test_same_bits_or_error(self, tmp_path, block, data):
        path = tmp_path / "t.json"
        path.write_bytes(data)
        assert load_outcome(load_tensor3, path) == load_outcome(load_tensor3_by_json_load, path)

    @pytest.mark.parametrize("size", range(1, 41))
    def test_numbers_split_by_block_edges(self, tmp_path, monkeypatch, size):
        # long numbers of every kind, so that some block edge falls inside
        # the digits, fraction, exponent or sign of each
        numbers = ["-1.2345678901234567e-300", "123456789012345678901234567890", "-0.0"]
        numbers += ["9.87654321e+25", "4503599627370497", "0.1", "5e-324", "-7"]
        path = tmp_path / "t.json"
        path.write_text(container(dims=[2, 2, 2], values=None)[:-1] + f', "values": [{", ".join(numbers)}]}}')
        expect = load_outcome(load_tensor3_by_json_load, path)
        assert isinstance(expect[0], np.dtype)
        monkeypatch.setattr(tensor_module, "_BLOCK", size)
        assert load_outcome(load_tensor3, path) == expect

    def test_walk_takes_what_save_tensor3_writes(self, tmp_path, monkeypatch):
        # the whole-document path is for files the walk refuses only
        t = np.random.default_rng(5).random((3, 4, 5))
        t[0, 0, :2] = (-0.0, 5e-324)
        save_tensor3(tmp_path / "t.json", t, {"player_ids": ["a", "b"]})

        def refuse(path):
            raise AssertionError("read whole")

        monkeypatch.setattr(tensor_module, "_read_json", refuse)
        monkeypatch.setattr(tensor_module, "_BLOCK", 16)
        back, metadata = load_tensor3(tmp_path / "t.json")
        assert back.tobytes() == t.tobytes() and metadata == {"player_ids": ["a", "b"]}


# values the container writer must spell exactly as json.dump does
ODD_FLOATS = [
    *(0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308),  # zeros, subnormals
    *(1.0, 123456789.0, 1e16, -1e16, 1e22, 2.0**53, 2.0**53 + 2),  # integral floats
    *(0.1, 1 / 3, 1.7976931348623157e308),
]
JSON_SCALARS = (
    hst.none()
    | hst.booleans()
    | hst.integers(-(2**70), 2**70)
    | hst.floats()  # NaN and infinities too: both encoders spell them alike
    | hst.text(max_size=6)
)
JSON_VALUES = hst.recursive(
    JSON_SCALARS,
    lambda inner: (
        hst.lists(inner, max_size=3) | hst.dictionaries(hst.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)


@hst.composite
def tensors(draw):
    dims = draw(hst.tuples(*[hst.integers(1, 4)] * 3))
    values = hst.sampled_from(ODD_FLOATS) | hst.floats(allow_nan=False, allow_infinity=False)
    size = math.prod(dims)
    return np.array(draw(hst.lists(values, min_size=size, max_size=size))).reshape(dims)


class TestWriterBytes:
    """``save_tensor3`` writes exactly the bytes of ``json.dump``."""

    @pytest.fixture(autouse=True)
    def small_slices(self, monkeypatch):
        # several slices per tensor, so the joins between slices are checked
        monkeypatch.setattr(tensor_module, "_SLICE", 5)

    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        t=tensors(),
        metadata=hst.none() | hst.dictionaries(hst.text(max_size=8), JSON_VALUES, max_size=4),
    )
    def test_matches_json_dump(self, tmp_path, t, metadata):
        save_tensor3(tmp_path / "new.json", t, metadata)
        save_tensor3_by_json_dump(tmp_path / "ref.json", t, metadata)
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

    def test_zero_signs_kept(self, tmp_path):
        t = np.array([0.0, -0.0, 0.0, -0.0]).reshape(1, 2, 2)
        save_tensor3(tmp_path / "t.json", t)
        assert '"values": [0.0, -0.0, 0.0, -0.0]' in (tmp_path / "t.json").read_text()
        back, _ = load_tensor3(tmp_path / "t.json")
        np.testing.assert_array_equal(np.signbit(back), np.signbit(t))


@hst.composite
def kruskal_factors(draw):
    """Weights and three non-negative factor matrices of one shared rank."""
    rank = draw(hst.integers(1, 4))
    dims = draw(hst.tuples(*[hst.integers(1, 5)] * 3))
    entries = hst.floats(0.0, 1.0)

    def matrix(rows):
        return np.array(draw(hst.lists(entries, min_size=rows * rank, max_size=rows * rank)))

    return (matrix(1), *(matrix(d).reshape(d, rank) for d in dims))


class TestTensorProperties:
    @settings(max_examples=200, deadline=None)
    @given(t=tensors(), mode=hst.sampled_from([1, 2, 3]))
    def test_unfold_matches_the_loop_oracle_exactly(self, t, mode):
        m = unfold(t, mode)
        assert m.tobytes() == unfold_by_loops(t, mode).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(factors=kruskal_factors(), mode=hst.sampled_from([1, 2, 3]))
    def test_kruskal_unfolding_is_khatri_rao_form(self, factors, mode):
        # X_(n) = F_n diag(w) (F_q (.) F_p)^T, p < q the other two modes
        w, *mats = factors
        p, q = (mats[m] for m in range(3) if m != mode - 1)
        expect = (mats[mode - 1] * w) @ khatri_rao(q, p).T
        got = unfold(kruskal_tensor(w, *mats), mode)
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-15)
