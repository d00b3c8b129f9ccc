"""The four frozen value records: construction, immutability, ==, hash, repr."""

from fractions import Fraction as F

import pytest

from ellgen.chern import Manifold
from ellgen.genera import Hypersurface
from ellgen.modular import ModBasisDecomp
from ellgen.sobolev import MoserExponents, moser_exponents

# (record, an equal record built by keywords, a record differing in one field)
RECORDS = [
    (Manifold("y", 8, {(1, 1): F(2, 3)}), Manifold(name="y", dim=8, pont={(1, 1): "2/3"}),
     Manifold("y", 8, {(1, 1): F(1, 3)})),
    (Hypersurface(5, 2), Hypersurface(ambient=5, degree=2), Hypersurface(5, 3)),
    (ModBasisDecomp(2, (F(1), F(-1, 2))), ModBasisDecomp(n=2, h=(F(1), F(-1, 2))),
     ModBasisDecomp(2, (F(1), F(0)))),
    (MoserExponents(4, 3.0, 2.0, 0.5, 2.0, 2.0), MoserExponents(m=4, p=3.0, mu=2.0, eps=0.5, K1=2.0, K2=2.0),
     MoserExponents(4, 3.0, 2.0, 0.5, 2.0, 3.0)),
]
IDS = ["Manifold", "Hypersurface", "ModBasisDecomp", "MoserExponents"]


@pytest.mark.parametrize("rec, same, other", RECORDS, ids=IDS)
def test_record_equality_is_by_value(rec, same, other):
    assert rec == same and not rec != same
    assert rec != other and not rec == other
    assert rec != tuple(rec.__dict__.values())


@pytest.mark.parametrize("rec, same, other", RECORDS, ids=IDS)
def test_record_fields_cannot_be_assigned_or_deleted(rec, same, other):
    field = next(iter(rec.__dict__))
    with pytest.raises(AttributeError):
        setattr(rec, field, 1)
    with pytest.raises(AttributeError):
        delattr(rec, field)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert rec == same


@pytest.mark.parametrize("rec, same, other", RECORDS[1:], ids=IDS[1:])
def test_records_without_mutable_fields_hash_by_value(rec, same, other):
    assert hash(rec) == hash(same)
    assert len({rec, same, other}) == 2


def test_manifold_is_unhashable():
    with pytest.raises(TypeError):
        hash(Manifold("pt", 4))


def test_record_reprs():
    manifold = Manifold("y", 8, {(1, 1): F(2, 3), (2,): 0})
    assert repr(manifold) == "Manifold(name='y', dim=8, pont={(1, 1): Fraction(2, 3)})"
    assert repr(Manifold("pt", 4)) == "Manifold(name='pt', dim=4, pont={})"
    assert repr(Hypersurface(5, 2)) == "Hypersurface(ambient=5, degree=2)"
    decomp = ModBasisDecomp(2, (F(1), F(-1, 2)))
    assert repr(decomp) == "ModBasisDecomp(n=2, h=(Fraction(1, 1), Fraction(-1, 2)))"
    assert (
        repr(moser_exponents(4, 3.0))
        == "MoserExponents(m=4, p=3.0, mu=2.0, eps=0.3333333333333333, K1=2.0, K2=2.0)"
    )


def test_record_construction_and_defaults():
    m = Manifold("pt", 4)
    assert (m.name, m.dim, m.pont) == ("pt", 4, {})
    h = Hypersurface(degree=2, ambient=5)
    assert (h.ambient, h.degree, h.real_dim) == (5, 2, 8)
    d = ModBasisDecomp(1, (F(-2),))
    assert (d.n, d.h, d.all_integer) == (1, (F(-2),), True)
    e = MoserExponents(4, 3.0, 2.0, 0.5, K1=2.0, K2=1.0)
    assert (e.m, e.p, e.mu, e.eps, e.K1, e.K2) == (4, 3.0, 2.0, 0.5, 2.0, 1.0)
    with pytest.raises(TypeError):
        Hypersurface(5)
