import random

import numpy as np
import pytest

from necklacekit import (
    Arrow,
    DoubleQuiver,
    Quiver,
    QuiverError,
    as_dim_vector,
    bilinear,
    double,
    euler_form,
    num_parameters,
    parameter_sum,
    rep_dimension,
    sigma_membership,
    support_connected,
    tits_form,
    weight_pairing,
)

from conftest import random_quiver


def test_euler_form_calogero(calogero):
    assert euler_form(calogero) == ((1, -1), (0, 0))


def test_euler_form_trivial_cases():
    assert euler_form(Quiver(1, ())) == ((1,),)
    assert euler_form(Quiver(1, (Arrow("x", 1, 1),))) == ((0,),)


def test_tits_form_calogero(calogero):
    assert tits_form(calogero) == ((2, -1), (-1, 0))


def test_tits_form_loop_and_a1(a1_tilde):
    assert tits_form(Quiver(1, (Arrow("x", 1, 1),))) == ((0,),)
    assert tits_form(a1_tilde) == ((2, -2), (-2, 2))


def test_bilinear_calogero(calogero):
    chi = euler_form(calogero)
    t_matrix = tits_form(calogero)
    assert bilinear(chi, (1, 2), (1, 2)) == -1
    assert num_parameters(calogero, (1, 2)) == 2
    # the entries of either sign that reflections produce
    assert num_parameters(calogero, (-1, 2)) == num_parameters(calogero, (1.0, -2.0)) == -2
    assert bilinear(t_matrix, (1, 2), (1, 2)) == -2
    assert bilinear(chi, (0, 0), (0, 0)) == 0


def test_bilinear_length_mismatch(calogero):
    with pytest.raises(ValueError):
        bilinear(euler_form(calogero), (1, 2, 3), (1, 2))
    for call in (as_dim_vector, num_parameters):
        with pytest.raises(ValueError, match="^dimension vector has length 1, expected 2$"):
            call(calogero, (1,))
    with pytest.raises(ValueError, match="^weight and dimension vector have different lengths$"):
        weight_pairing((1, 2, 3), (1, 2))


def test_support_connected(calogero):
    assert support_connected(calogero, (1, 2))
    assert support_connected(calogero, (0, 3))
    assert not support_connected(Quiver(2, ()), (1, 1))
    with pytest.raises(ValueError):
        support_connected(calogero, (0, 0))
    with pytest.raises(ValueError, match="^dimension vector has length 1, expected 2$"):
        support_connected(calogero, (1,))


def test_double_structure(calogero):
    dq = double(calogero)
    assert len(dq.arrows) == 2 * len(calogero.arrows)
    for arr in dq.arrows:
        partner = dq.arrow(dq.star(arr.label))
        assert dq.star(partner.label) == arr.label
        assert partner.label != arr.label
        assert (partner.source, partner.target) == (arr.target, arr.source)


def test_double_euler_is_tits_minus_identity():
    rng = random.Random(100)
    for _ in range(100):
        q = random_quiver(rng)
        dq = double(q)
        t_matrix = tits_form(q)
        expected = tuple(
            tuple(t_matrix[i][j] - (1 if i == j else 0) for j in range(q.vertex_count))
            for i in range(q.vertex_count)
        )
        assert euler_form(dq) == expected


def test_tits_symmetric_random():
    rng = random.Random(101)
    for _ in range(100):
        q = random_quiver(rng)
        t_matrix = tits_form(q)
        k = q.vertex_count
        assert all(t_matrix[i][j] == t_matrix[j][i] for i in range(k) for j in range(k))
        alpha = tuple(rng.randint(0, 5) for _ in range(k))
        assert bilinear(t_matrix, alpha, alpha) == 2 * bilinear(euler_form(q), alpha, alpha)
        # the one pass over the arrows against a count per vertex pair, and
        # the Tits diagonal that roots read loop-freeness from
        assert euler_form(q) == tuple(
            tuple(int(i == j) - q.arrow_count(i, j) for j in q.vertices) for i in q.vertices
        )
        assert [t_matrix[v - 1][v - 1] == 2 for v in q.vertices] == [
            q.is_loop_free(v) for v in q.vertices
        ]


def test_validation_errors():
    with pytest.raises(QuiverError):
        Quiver(2, (Arrow("a", 1, 2), Arrow("a", 2, 1)))
    with pytest.raises(QuiverError):
        Quiver(2, (Arrow("a*", 1, 2),))
    with pytest.raises(QuiverError):
        Quiver(2, (Arrow("a", 1, 3),))
    with pytest.raises(QuiverError):
        Quiver(0, ())
    with pytest.raises(QuiverError):
        double(double(Quiver(1, (Arrow("x", 1, 1),))))
    with pytest.raises(QuiverError, match="contains whitespace or a comma"):
        Quiver(1, (Arrow("a,b", 1, 1),))
    loop = Quiver(1, (Arrow("x", 1, 1),))
    with pytest.raises(QuiverError, match="requires its base quiver"):
        DoubleQuiver(1, ())
    with pytest.raises(QuiverError, match="do not match the doubling"):
        DoubleQuiver(1, (Arrow("x", 1, 1),), base=loop)
    with pytest.raises(QuiverError, match=r"^malformed starred label 'x\*\*'$"):
        DoubleQuiver(1, (Arrow("x**", 1, 1),), base=loop)
    with pytest.raises(ValueError, match=r"^dimension vector \(1, -1\) has a negative entry$"):
        as_dim_vector(Quiver(2, ()), (1, -1))


def test_dimension_vectors_refuse_non_integer_entries(calogero):
    # int() would truncate each of these to a vector the call then answers for
    with pytest.raises(ValueError, match=r"^dimension vector \(1\.5, 1\) has a non-integer entry$"):
        as_dim_vector(calogero, (1.5, 1))
    with pytest.raises(ValueError, match=r"^dimension vector \(1\.5, 1\) has a non-integer entry$"):
        sigma_membership(calogero, (1.5, 1), (0, 0))
    with pytest.raises(ValueError, match=r"^dimension vector \(1\.5, 1\) has a non-integer entry$"):
        rep_dimension(calogero, (1.5, 1))
    # p of (1.5, 1) would be 1.75
    with pytest.raises(ValueError, match=r"^dimension vector \(1\.5, 1\) has a non-integer entry$"):
        num_parameters(calogero, (1.5, 1))
    with pytest.raises(ValueError, match=r"^dimension vector \(1\.5, 1\) has a non-integer entry$"):
        parameter_sum(calogero, (((1, 0), 1), ((1.5, 1), 2)))
    with pytest.raises(ValueError, match="non-integer entry"):
        as_dim_vector(calogero, (np.float64(0.5), 1))
    for entries in ((1.0, 2.0), (np.int64(1), np.int32(2)), np.array([1, 2]), iter((1, 2))):
        vec = as_dim_vector(calogero, entries)
        assert vec == (1, 2) and all(type(x) is int for x in vec)
