"""The value-class contract of the six frozen record classes.

``Dimension``, ``PauliWord``, ``SymplecticMatrix``, ``GateSequence``,
``Embedding`` and ``DenseOperator`` behave as frozen records of their
fields: the repr names every field, ``==`` and ``hash`` read the field
tuple, fields are set once, and pickle and copy round-trip them.
"""

import copy
import pickle
import re

import numpy as np
import pytest

from cliffsynth import (
    CliffSynthError,
    DenseOperator,
    Dimension,
    Embedding,
    Fourier,
    GateSequence,
    MalformedMatrixError,
    PauliWord,
    Phase,
    SymplecticMatrix,
)

DIM6 = Dimension.of(6)
DIM3 = Dimension.of(3)

# (class, field values, repr): every class but DenseOperator, whose
# matrix field compares elementwise
CASES = [
    (Dimension, {"d": 6, "D": 12}, "Dimension(d=6, D=12)"),
    (
        PauliWord,
        {"dim": DIM6, "xexp": (1, 2), "zexp": (0, 3)},
        "PauliWord(dim=Dimension(d=6, D=12), xexp=(1, 2), zexp=(0, 3))",
    ),
    (
        SymplecticMatrix,
        {"dim": DIM3, "rows": ((0, 2), (1, 0))},
        "SymplecticMatrix(dim=Dimension(d=3, D=3), rows=((0, 2), (1, 0)))",
    ),
    (
        GateSequence,
        {"gates": (Fourier(0), Phase(1, 2)), "n": 2, "dim": DIM3},
        "GateSequence(gates=(Fourier(qudit=0), Phase(qudit=1, power=2)), n=2, "
        "dim=Dimension(d=3, D=3))",
    ),
    (Embedding, {"n": 2, "r_x": 3, "r_z": 4}, "Embedding(n=2, r_x=3, r_z=4)"),
]
IDS = [case[0].__name__ for case in CASES]


def build(cls, fields):
    return cls(*fields.values())


def dense():
    return DenseOperator(Dimension.of(2), 1, np.array([[0, 1], [1, 0]]))


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
class TestRecord:
    def test_repr(self, cls, fields, text):
        assert repr(build(cls, fields)) == text

    def test_equal_values(self, cls, fields, text):
        a, b = build(cls, fields), build(cls, fields)
        assert a is not b
        assert a == b and not (a != b)
        assert hash(a) == hash(b) == hash(tuple(fields.values()))

    def test_not_equal_to_its_field_tuple(self, cls, fields, text):
        a, values = build(cls, fields), tuple(fields.values())
        assert a != values and not (a == values)
        assert a.__eq__(values) is NotImplemented

    def test_match_args_and_keywords(self, cls, fields, text):
        assert cls.__match_args__ == tuple(fields)
        a = cls(**fields)
        assert a == build(cls, fields)
        assert tuple(getattr(a, name) for name in cls.__match_args__) == tuple(fields.values())
        match a:
            case cls(first, second):
                assert (first, second) == tuple(fields.values())[:2]
            case _:
                pytest.fail("no class pattern matched")

    def test_frozen(self, cls, fields, text):
        a = build(cls, fields)
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(a, name, value)
            with pytest.raises(AttributeError):
                delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = 0
        assert repr(a) == text

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle(self, cls, fields, text, protocol):
        a = build(cls, fields)
        back = pickle.loads(pickle.dumps(a, protocol))
        assert type(back) is cls and back == a and hash(back) == hash(a)
        assert repr(back) == text

    def test_copies(self, cls, fields, text):
        a = build(cls, fields)
        for twin in (copy.copy(a), copy.deepcopy(a)):
            assert type(twin) is cls and twin == a and repr(twin) == text


def test_unequal_values_differ():
    assert Dimension.of(5) != Dimension.of(6)
    assert PauliWord(DIM6, (1, 2), (0, 3)) != PauliWord(DIM6, (1, 2), (0, 4))
    assert Embedding(2, 3, 4) != Embedding(2, 4, 3)
    seq = GateSequence((Fourier(0),), 2, DIM3)
    assert seq != GateSequence((Fourier(0),), 3, DIM3)


class TestDenseOperator:
    def test_repr(self):
        op = dense()
        assert repr(op) == f"DenseOperator(dim=Dimension(d=2, D=4), n=1, matrix={op.matrix!r})"

    def test_eq_and_hash(self):
        op = dense()
        assert op == op and not (op != op)
        assert op != (op.dim, op.n, op.matrix)
        assert op.__eq__((op.dim, op.n, op.matrix)) is NotImplemented
        with pytest.raises(TypeError):
            hash(op)  # the ndarray field is unhashable

    def test_match_args_keywords_and_frozen(self):
        assert DenseOperator.__match_args__ == ("dim", "n", "matrix")
        op = DenseOperator(dim=Dimension.of(2), n=1, matrix=np.eye(2))
        for name in DenseOperator.__match_args__:
            with pytest.raises(AttributeError):
                setattr(op, name, None)
            with pytest.raises(AttributeError):
                delattr(op, name)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle(self, protocol):
        op = dense()
        back = pickle.loads(pickle.dumps(op, protocol))
        assert type(back) is DenseOperator and (back.dim, back.n) == (op.dim, op.n)
        assert np.array_equal(back.matrix, op.matrix)

    def test_copies(self):
        op = dense()
        for twin in (copy.copy(op), copy.deepcopy(op)):
            assert type(twin) is DenseOperator and (twin.dim, twin.n) == (op.dim, op.n)
            assert np.array_equal(twin.matrix, op.matrix)


def test_error_messages_embed_the_repr():
    message = "exponents must be integers: PauliWord(dim=Dimension(d=5, D=5), xexp=(1.5,), zexp=(0,))"
    with pytest.raises(MalformedMatrixError, match=f"^{re.escape(message)}$"):
        PauliWord(Dimension.of(5), (1.5,), (0,))
    message = "embedding parameters must be integers: Embedding(n=2, r_x='1', r_z=1)"
    with pytest.raises(CliffSynthError, match=f"^{re.escape(message)}$"):
        Embedding(2, "1", 1)
