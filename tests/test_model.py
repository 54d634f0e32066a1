"""Model construction, validation, instantiation, and the absolute distance."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pmcperturb import (
    ArityMismatchError,
    Assignment,
    DistributionParameter,
    DomainError,
    MissingParameterError,
    Pmc,
    SimplexViolationError,
    ViolationKind,
    absolute_distance,
    build_frog,
    build_zeroconf,
    instantiate,
    model_digest,
    reference_assignment,
    validate_pmc,
)

FROG_REFERENCE = (0.375, 0.125, 0.25, 0.25)


def frog_with_reference(reference):
    pmc, _ = build_frog()
    params = (DistributionParameter(id="hop", row=1, support=(1, 2, 3, 4),
                                    reference=reference),)
    return Pmc(n=4, initial=pmc.initial, concrete_rows=pmc.concrete_rows,
               parameters=params)


class TestValidate:
    def test_frog_ok(self):
        pmc, _ = build_frog()
        assert validate_pmc(pmc).ok

    def test_zeroconf_ok(self):
        pmc, _ = build_zeroconf(a=0.2)
        assert validate_pmc(pmc).ok

    def test_reference_not_stochastic(self):
        pmc = frog_with_reference((0.375, 0.125, 0.25, 0.30))
        result = validate_pmc(pmc)
        assert not result.ok
        assert any(v.kind is ViolationKind.ROW_NOT_STOCHASTIC and v.row == 1
                   for v in result.violations)

    def test_negative_entry(self):
        pmc = frog_with_reference((0.5, -0.25, 0.375, 0.375))
        kinds = {v.kind for v in validate_pmc(pmc).violations}
        assert ViolationKind.NEGATIVE_ENTRY in kinds

    def test_duplicate_parameter_id(self):
        pmc = Pmc(n=2, initial=(0.5, 0.5), concrete_rows={},
                  parameters=(
                      DistributionParameter("q", 1, (1, 2), (0.5, 0.5)),
                      DistributionParameter("q", 2, (1, 2), (0.5, 0.5)),
                  ))
        kinds = {v.kind for v in validate_pmc(pmc).violations}
        assert ViolationKind.DUPLICATE_PARAMETER_ID in kinds

    def test_row_missing_and_duplicate(self):
        pmc = Pmc(n=3, initial=(1.0, 0.0, 0.0),
                  concrete_rows={1: (0.0, 1.0, 0.0), 2: (0.0, 0.0, 1.0)},
                  parameters=(DistributionParameter("q", 2, (1, 3), (0.5, 0.5)),))
        result = validate_pmc(pmc)
        kinds = {(v.kind, v.row) for v in result.violations}
        assert (ViolationKind.DUPLICATE_ROW, 2) in kinds
        assert (ViolationKind.ROW_MISSING, 3) in kinds

    def test_concrete_row_wrong_arity(self):
        pmc = Pmc(n=3, initial=(1.0, 0.0, 0.0),
                  concrete_rows={1: (0.5, 0.5), 2: (0, 0, 1), 3: (0, 0, 1)},
                  parameters=())
        assert any(v.kind is ViolationKind.ARITY_MISMATCH and v.row == 1
                   for v in validate_pmc(pmc).violations)

    def test_bad_support(self):
        pmc = Pmc(n=3, initial=(1.0, 0.0, 0.0),
                  concrete_rows={2: (0, 0, 1), 3: (0, 0, 1)},
                  parameters=(DistributionParameter("q", 1, (3, 1), (0.5, 0.5)),))
        assert any(v.kind is ViolationKind.BAD_PLACEMENT
                   for v in validate_pmc(pmc).violations)


class TestInstantiate:
    def test_frog_at_references(self):
        pmc, _ = build_frog()
        matrix = instantiate(pmc, reference_assignment(pmc))
        np.testing.assert_allclose(matrix[0], FROG_REFERENCE)
        np.testing.assert_allclose(matrix[2], (0.0, 0.5, 0.5, 0.0))
        np.testing.assert_allclose(matrix[3], (1 / 3, 0.0, 1 / 3, 1 / 3))
        np.testing.assert_allclose(matrix.sum(axis=1), np.ones(4), atol=1e-12)

    def test_frog_perturbed_row(self):
        pmc, _ = build_frog()
        vec = (0.374, 0.124, 0.251, 0.251)
        matrix = instantiate(pmc, Assignment({"hop": vec}))
        np.testing.assert_allclose(matrix[0], vec)

    def test_support_placement(self):
        pmc = Pmc(n=3, initial=(1.0, 0.0, 0.0),
                  concrete_rows={2: (0, 0, 1), 3: (0, 0, 1)},
                  parameters=(DistributionParameter("q", 1, (1, 3), (0.6, 0.4)),))
        matrix = instantiate(pmc, reference_assignment(pmc))
        np.testing.assert_allclose(matrix[0], (0.6, 0.0, 0.4))

    def test_missing_parameter(self):
        pmc, _ = build_frog()
        with pytest.raises(MissingParameterError):
            instantiate(pmc, Assignment({}))

    def test_arity_mismatch(self):
        pmc, _ = build_frog()
        with pytest.raises(ArityMismatchError):
            instantiate(pmc, Assignment({"hop": (0.5, 0.5)}))

    def test_zeroconf_rows(self):
        pmc, _ = build_zeroconf(a=0.2, loss_ref=0.25)
        matrix = instantiate(pmc, reference_assignment(pmc))
        np.testing.assert_allclose(matrix[0], (0, 0.2, 0, 0, 0, 0, 0.8))
        np.testing.assert_allclose(matrix[5], (0, 0, 0, 0, 0, 1, 0))
        np.testing.assert_allclose(matrix[1], (0.75, 0, 0.25, 0, 0, 0, 0))
        np.testing.assert_allclose(matrix.sum(axis=1), np.ones(7), atol=1e-12)

    def test_random_models_row_stochastic(self):
        from conftest import random_pmc

        rng = np.random.default_rng(7)
        for _ in range(20):
            pmc = random_pmc(rng, n=int(rng.integers(2, 9)), n_params=1)
            matrix = instantiate(pmc, reference_assignment(pmc))
            np.testing.assert_allclose(matrix.sum(axis=1), np.ones(pmc.n), atol=1e-12)


class TestAssignment:
    def test_rejects_off_simplex(self):
        with pytest.raises(SimplexViolationError):
            Assignment({"q": (0.5, 0.4)})

    def test_rejects_negative(self):
        with pytest.raises(SimplexViolationError):
            Assignment({"q": (1.2, -0.2)})


class TestBuilders:
    def test_zeroconf_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                build_zeroconf(a=bad)
            with pytest.raises(DomainError):
                build_zeroconf(loss_ref=bad)

    def test_frog_problem(self):
        _, problem = build_frog()
        assert problem.constraint == frozenset({1, 2})
        assert problem.destination == frozenset({4})

    def test_digest_stable(self):
        pmc1, _ = build_frog()
        pmc2, _ = build_frog()
        assert model_digest(pmc1) == model_digest(pmc2)
        pmc3, _ = build_zeroconf()
        assert model_digest(pmc1) != model_digest(pmc3)


class TestDigest:
    # Pinned: the digest hashes little-endian bytes, not the numpy repr of
    # floats, so this value holds on every numpy version pyproject allows.
    FROG_DIGEST = "18a2819baebf"

    def test_frog_pinned(self):
        assert model_digest(build_frog()[0]) == self.FROG_DIGEST

    @staticmethod
    def frog_variant(**changes):
        pmc, _ = build_frog()
        hop = dataclasses.replace(pmc.parameters[0], **changes.pop("hop", {}))
        return dataclasses.replace(pmc, parameters=(hop,), **changes)

    @pytest.mark.parametrize("changes", [
        {"hop": {"support": (1, 2, 3)}},
        {"n": 5},
        {"hop": {"id": "jump"}},
        {"hop": {"row": 3}},
        {"hop": {"reference": (0.375, 0.125, 0.25, np.nextafter(0.25, 1.0))}},
        {"initial": (0.25, 0.25, 0.25, np.nextafter(0.25, 0.0))},
        {"concrete_rows": {2: (0.375, 0.125, 0.25, np.nextafter(0.25, 1.0)),
                           3: (0.0, 0.5, 0.5, 0.0), 4: (1 / 3, 0.0, 1 / 3, 1 / 3)}},
        {"concrete_rows": {2: (0.375, 0.125, 0.25, 0.25), 3: (0.0, 0.5, 0.5, 0.0)}},
    ])
    def test_changes_with_structure_and_last_bit(self, changes):
        assert model_digest(self.frog_variant(**changes)) != self.FROG_DIGEST

    def test_unchanged_variant_keeps_digest(self):
        assert model_digest(self.frog_variant(hop={"id": "hop"})) == self.FROG_DIGEST


class TestAbsoluteDistance:
    def test_table_values(self):
        assert absolute_distance(FROG_REFERENCE, (0.374, 0.124, 0.251, 0.251)) == pytest.approx(0.004)
        assert absolute_distance((0.75, 0.25), (0.749, 0.251)) == pytest.approx(0.002)

    def test_identical(self):
        assert absolute_distance(FROG_REFERENCE, FROG_REFERENCE) == 0.0

    def test_arity(self):
        with pytest.raises(ArityMismatchError):
            absolute_distance((0.5, 0.5), (1.0,))

    @given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1))
    def test_simplex_properties(self, k, seed):
        rng = np.random.default_rng(seed)
        u, v, w = rng.dirichlet(np.ones(k), size=3)
        duv = absolute_distance(u, v)
        assert duv == pytest.approx(absolute_distance(v, u))
        assert duv <= 2.0 + 1e-12
        assert duv >= 0.0
        assert duv <= absolute_distance(u, w) + absolute_distance(w, v) + 1e-12
