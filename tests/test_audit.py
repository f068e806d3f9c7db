"""Assumption auditors: envelopes, integrability, subadditivity, positivity."""

import json
import tracemalloc

import numpy as np
import pytest

from pommkit import (
    FiniteHmmParams,
    SsmParams,
    Stationary,
    SvParams,
    SvRegion,
    SvThetaBox,
    b6_audit_sv,
    b6_jensen_floor_sv,
    envelope_validity_audit,
    finite_hmm_spec,
    finite_w_source,
    glm_spec,
    iid_gaussian_spec,
    kingman_check,
    positivity_audit,
    project_observations,
    psup_cm_complement_bound,
    psup_sv_bound,
    scalar_ssm,
    simulate_complete,
    ssm_spec,
    sv_block_density,
    sv_spec,
    tightness_audit_sv,
)
from pommkit import rng as rngmod
from pommkit.audit import b6_sufficient_integral_sv, b6_entropy_floor_sv, sv_marginal_y_logpdf, write_audit_jsonl
from pommkit.models import sv_g_sample, sv_qx_sample, sv_stationary_x_sample
from tests.test_models import one_expression_normal, one_expression_sv_g, random_stable_glm

STAR = SvParams(beta=1.0, sigma=0.3, phi=0.9)
BOX = SvThetaBox(beta_lo=0.1, sigma_lo=0.1, phi_hi=0.95, sigma_hi=2.5)


class TestPsupEnvelope:
    def test_first_bound_worked_value(self):
        region = SvRegion.make(sigma_lo=1.0, sigma_hi=np.inf, beta_lo=0.1, phi_hi=0.95)
        val = float(psup_sv_bound(region, 1.0, 1.0))
        assert abs(val - 1.0 / (2 * np.pi * np.sqrt(np.e))) < 1e-14

    def test_enlarging_region_never_decreases_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s_lo = rng.uniform(0.2, 1.0)
            s_hi = s_lo + rng.uniform(0.1, 2.0)
            b_lo = rng.uniform(0.1, 2.0)
            phi = rng.uniform(0.1, 0.9)
            y1, y2 = rng.normal(size=2) + 0.1
            small = SvRegion.make(s_lo, s_hi, b_lo, phi)
            big = SvRegion.make(s_lo / 2, s_hi * 2, b_lo / 2, min(0.99, phi + 0.05))
            assert float(psup_sv_bound(big, y1, y2)) >= float(psup_sv_bound(small, y1, y2)) - 1e-15

    def test_vacuous_envelopes_rejected(self):
        region = SvRegion.make(sigma_lo=1.0, sigma_hi=np.inf, beta_lo=0.1, phi_hi=0.9)
        with pytest.raises(ValueError):
            psup_sv_bound(region, 0.0, 1.0)  # y1 = 0 kills both bounds

    def test_second_bound_used_on_beta_tail(self):
        # the envelope outside C_m falls monotonically as the compact
        # exhaustion grows; the beta-tail piece is exponentially small
        vals = [float(psup_cm_complement_bound(BOX, m, 1.0, 1.0)) for m in (10.0, 100.0, 1000.0)]
        assert vals[0] >= vals[1] >= vals[2]
        assert vals[2] < 1e-6

    def test_box_rejects_nan_and_infinite_floors(self):
        fields = dict(beta_lo=0.1, sigma_lo=0.1, phi_hi=0.95, sigma_hi=2.5)
        for name in fields:
            with pytest.raises(ValueError):
                SvThetaBox(**{**fields, name: np.nan})
        for name in ("beta_lo", "sigma_lo"):
            with pytest.raises(ValueError, match="floors must be positive and finite"):
                SvThetaBox(**{**fields, name: np.inf})
        assert SvThetaBox(**{**fields, "sigma_hi": np.inf}).sigma_hi == np.inf

    def test_region_validation(self):
        with pytest.raises(ValueError):
            SvRegion.make(sigma_lo=2.0, sigma_hi=1.0, beta_lo=0.1, phi_hi=0.9)
        with pytest.raises(ValueError):
            SvRegion.make(sigma_lo=0.5, sigma_hi=1.0, beta_lo=0.1, phi_hi=1.0)


class TestEnvelopeDominatesQuadrature:
    def test_block_density_positive_and_finite(self):
        val = sv_block_density(STAR, x0=0.5, y1=0.7, y2=-0.3)
        assert 0.0 < val < 1.0

    def test_envelope_validity_sample(self):
        report = envelope_validity_audit(BOX, draws=300, seed=5)
        assert report.status == "pass"
        assert report.statistic <= 1e-9

    def test_determinism(self):
        a = envelope_validity_audit(BOX, draws=50, seed=6)
        b = envelope_validity_audit(BOX, draws=50, seed=6)
        assert a.statistic == b.statistic


class TestTightnessAudit:
    def test_reports_and_final_max(self):
        conv, logmom = tightness_audit_sv(STAR, BOX, [10.0, 100.0, 1000.0], sims=20_000, seed=7)
        assert conv.assumption == "B5.conv" and conv.status == "estimate"
        assert conv.statistic < 1e-6  # the sigma slice is exhausted at m = 1000
        assert logmom.assumption == "B5.logmoment"
        assert np.isfinite(logmom.statistic)
        assert logmom.ci_hi - logmom.ci_lo < 0.1

    def test_determinism(self):
        a = tightness_audit_sv(STAR, BOX, [100.0], sims=2_000, seed=8)[0]
        b = tightness_audit_sv(STAR, BOX, [100.0], sims=2_000, seed=8)[0]
        assert a.statistic == b.statistic


class TestAuditDraws:
    """The SV audits draw with the shared samplers of ``models`` on their audit substreams."""

    def test_tightness_blocks(self):
        ms, sims, seed = [10.0, 100.0], 3_000, 12
        conv, logmom = tightness_audit_sv(STAR, BOX, ms, sims=sims, seed=seed)
        rng = rngmod.substream(seed, rngmod.AUDIT, 2)
        x0 = sv_stationary_x_sample(STAR, sims, rng)
        x1 = sv_qx_sample(STAR, x0, rng)
        x2 = sv_qx_sample(STAR, x1, rng)
        _, y1, y2 = [sv_g_sample(STAR, x, rng) for x in (x0, x1, x2)]  # one emission per state, in order
        assert conv.statistic == float(np.max(psup_cm_complement_bound(BOX, ms[-1], y1, y2)))
        whole = SvRegion.make(BOX.sigma_lo, BOX.sigma_hi, BOX.beta_lo, BOX.phi_hi)
        assert logmom.statistic == float(np.maximum(np.log(psup_sv_bound(whole, y1, y2)), 0.0).mean())

    def test_entropy_floor_observations(self):
        draws, seed = 5_000, 11
        rep = b6_entropy_floor_sv(STAR, draws=draws, seed=seed)
        rng = rngmod.substream(seed, rngmod.AUDIT, 3)
        ys = sv_g_sample(STAR, sv_stationary_x_sample(STAR, draws, rng), rng)
        assert rep.statistic == float(sv_marginal_y_logpdf(STAR, ys).mean())


def one_expression_sv_qx(params, x, x_next):
    return one_expression_normal(x_next - params.phi * x, params.sigma**2)


class TestBlockedKernels:
    """The row-blocked, in-place kernels give the bits of the one-shot formulas they replaced."""

    def test_marginal_matches_one_shot(self):
        for params in (STAR, SvParams(0.7, 0.45, -0.6)):
            t, w = np.polynomial.hermite.hermgauss(201)
            xs = np.sqrt(2.0 * params.x_var) * t
            lw = np.log(w / np.sqrt(np.pi))
            ys = 2.0 * np.random.default_rng(31).standard_normal(1037)  # not a multiple of the block
            for n in (1037, 1, 0):
                comp = one_expression_sv_g(params, xs[None, :], ys[:n, None]) + lw[None, :]
                m = comp.max(axis=1)
                want = m + np.log(np.exp(comp - m[:, None]).sum(axis=1))
                got = sv_marginal_y_logpdf(params, ys[:n])
                assert got.shape == (n,) and got.tobytes() == want.tobytes()

    def test_block_density_matches_one_shot(self):
        nodes, span = 241, 9.0
        for params, x0, y1, y2 in (
            (STAR, 0.3, 0.5, -1.2),
            (SvParams(0.5, 0.8, -0.7), -1.1, 2.0, 0.1),
            (SvParams(2.0, 0.2, 0.0), 0.0, -0.4, 0.9),
            (SvParams(0.3, 1.5, -0.95), 2.5, 0.05, -3.0),
        ):
            phi, sigma = params.phi, params.sigma
            g1 = np.linspace(phi * x0 - span * sigma, phi * x0 + span * sigma, nodes)
            g2 = np.linspace(phi * g1[0 if phi >= 0 else -1] - span * sigma, phi * g1[-1 if phi >= 0 else 0] + span * sigma, nodes)
            w1, w2 = np.full(nodes, g1[1] - g1[0]), np.full(nodes, g2[1] - g2[0])
            w1[0] = w1[-1] = w1[0] / 2.0
            w2[0] = w2[-1] = w2[0] / 2.0
            inner = np.exp(one_expression_sv_qx(params, g1[:, None], g2[None, :]) + one_expression_sv_g(params, g2, y2)[None, :]) @ w2
            outer = np.exp(one_expression_sv_qx(params, x0, g1) + one_expression_sv_g(params, g1, y1)) * inner
            assert sv_block_density(params, x0, y1, y2) == float(outer @ w1)

    def test_entropy_floor_allocates_one_block_not_one_matrix(self):
        # the one-shot marginal held a 100,000 x 201 matrix several times over (484 MB traced)
        tracemalloc.start()
        try:
            b6_entropy_floor_sv(STAR, draws=100_000, seed=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestPriorIntegrability:
    def test_proper_prior_passes(self):
        rep = b6_sufficient_integral_sv(BOX, proper=True)
        assert rep.status == "pass"

    def test_improper_lebesgue_diverges_in_beta(self):
        rep = b6_sufficient_integral_sv(BOX, proper=False)
        assert rep.status == "fail"
        assert "growth" in rep.detail

    def test_combined_audit(self):
        r1, r2 = b6_audit_sv(STAR, BOX, proper_prior=True, draws=20_000, seed=9)
        assert r1.assumption == "B6.1" and r1.status == "pass"
        assert r2.assumption == "B6.2" and r2.status == "estimate"


class TestEntropyFloor:
    def test_floor_values_at_unit_scale(self):
        floor, joint_line = b6_jensen_floor_sv(SvParams(1.0, 0.3, 0.9))
        base = -0.5 * np.log(2 * np.pi)
        assert abs(joint_line - (base - 0.5)) < 1e-14
        v = SvParams(1.0, 0.3, 0.9).x_var
        assert abs(floor - (base - np.exp(v) / 2)) < 1e-14
        assert floor < joint_line

    def test_estimate_sits_between_floor_and_coupled_line(self):
        rep = b6_entropy_floor_sv(STAR, draws=50_000, seed=10)
        floor, joint_line = b6_jensen_floor_sv(STAR)
        se = (rep.ci_hi - rep.ci_lo) / (2 * 1.96)
        assert rep.statistic >= floor - 3 * se
        # the coupled-moment line is an upper bound here (entropy increases
        # once the volatility state is non-degenerate)
        assert rep.statistic <= joint_line + 3 * se


class TestKingman:
    def random_params(self, rng, K=2, L=2):
        return FiniteHmmParams(rng.dirichlet(np.ones(K), size=K), rng.dirichlet(np.ones(L), size=K))

    def test_exact_subadditivity(self):
        rng = np.random.default_rng(11)
        family = [self.random_params(rng) for _ in range(4)]
        spec = finite_hmm_spec(family[0])
        obs = project_observations(simulate_complete(spec, Stationary(), 40, seed=12)).reshape(-1)
        w = finite_w_source(family)
        triples = []
        gen = np.random.default_rng(13)
        while len(triples) < 30:
            r, s, t = sorted(gen.integers(0, 41, size=3))
            triples.append((int(r), int(s), int(t)))
        rep = kingman_check(w, obs, triples)
        assert rep.status == "pass"
        assert rep.statistic <= 1e-12

    def test_degenerate_triple_is_tight(self):
        rng = np.random.default_rng(14)
        family = [self.random_params(rng)]
        obs = np.array([0, 1, 0])
        w = finite_w_source(family)
        assert w(1, 1, obs) == 1.0
        rep = kingman_check(w, obs, [(1, 1, 1)])
        assert rep.status == "pass"

    def test_corrupted_source_is_flagged(self):
        # negative control: long blocks worth more than the split product
        def bad_w(r, s, ys):
            return 1.0 if s - r >= 4 else 0.5

        rep = kingman_check(bad_w, np.zeros(5), [(0, 2, 4)])
        assert rep.status == "fail"
        assert rep.statistic > 1e-12


class TestPositivity:
    def test_linear_gaussian_passes(self):
        reports = positivity_audit(glm_spec(random_stable_glm(np.random.default_rng(15))), seed=16)
        assert reports[0].assumption == "B3" and reports[0].status == "pass"

    def test_sv_passes_both(self):
        reports = {r.assumption: r for r in positivity_audit(sv_spec(STAR), seed=17)}
        assert reports["B3"].status == "pass"
        assert reports["C2"].status == "pass"

    def test_zero_emission_fails(self):
        spec = finite_hmm_spec(FiniteHmmParams([[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.5, 0.5]]))
        reports = {r.assumption: r for r in positivity_audit(spec)}
        assert reports["C2"].status == "fail"
        assert reports["B3"].status == "fail"

    def test_positive_finite_model_passes(self):
        spec = finite_hmm_spec(FiniteHmmParams([[0.6, 0.4], [0.3, 0.7]], [[0.9, 0.1], [0.2, 0.8]]))
        reports = {r.assumption: r for r in positivity_audit(spec)}
        assert reports["B3"].status == "pass" and reports["C2"].status == "pass"

    def test_ssm_factorized_model(self):
        reports = {r.assumption: r for r in positivity_audit(scalar_ssm(0.5), seed=18)}
        assert reports["B3"].status == "pass" and reports["C2"].status == "pass"

    def test_vector_state_space_models(self):
        # C2 reads the hooks' shapes: states (samples, p) when p > 1, observations (samples, q) unless p = q = 1
        for params in (SsmParams([[0.5, 0.2], [0.0, 0.3]], [[1.0, 0.5]], np.eye(2), [[0.3]]),
                       SsmParams([[0.7]], [[1.0], [-0.4]], [[0.8]], [[0.3, 0.1], [0.1, 0.5]])):
            spec = ssm_spec(params)
            p, q = params.p, params.q
            reports = {r.assumption: r for r in positivity_audit(spec, seed=21)}
            assert reports["B3"].status == "pass" and reports["C2"].status == "pass"
            # the same samples, one call per sample, after the B3 draws (x, y, x', y' per sample)
            n = reports["C2"].sims
            rng = rngmod.substream(21, rngmod.AUDIT, 4)
            for i in range(4 * n):
                rng.standard_normal(p if i % 2 == 0 else q)
            per_sample = [spec.hmm.g_logpdf(z[:p] if p > 1 else z[0], z[p:])
                          for z in rng.standard_normal((n, p + q)) * 5.0]
            assert reports["C2"].statistic == min(per_sample)


def per_pair_b3(spec, seed):
    """B3's minimum by one ``trans_logpdf`` call per sampled pair and per pair of extremes, in turn."""
    rng = rngmod.substream(seed, rngmod.AUDIT, 4)
    p, q = spec.state_dim, spec.obs_dim
    worst = np.inf
    for _ in range(200):
        z = (rng.standard_normal(p) * 5.0, rng.standard_normal(q) * 5.0)
        z1 = (rng.standard_normal(p) * 5.0, rng.standard_normal(q) * 5.0)
        worst = min(worst, spec.trans_logpdf(z, z1))
    extremes = [-50.0, -1.0, 0.0, 1.0, 50.0]
    for a in extremes:
        for b in extremes:
            worst = min(worst, spec.trans_logpdf((np.full(p, a), np.full(q, a)), (np.full(p, b), np.full(q, b))))
    return worst


class TestPositivityInOneCall:
    """B3 evaluates its samples and its extremes in one broadcast call each, with the per-pair minimum."""

    def test_b3_equals_the_per_pair_loop(self):
        rng = np.random.default_rng(40)
        specs = [
            glm_spec(random_stable_glm(rng)),
            glm_spec(random_stable_glm(rng, d=3, p=1, q=2)),
            scalar_ssm(0.5),
            scalar_ssm(0.95, 0.7, 1.3, 0.4),
            ssm_spec(SsmParams([[0.5, 0.2], [0.0, 0.3]], [[1.0, 0.5]], np.eye(2), [[0.3]])),
            ssm_spec(SsmParams([[0.7]], [[1.0], [-0.4]], [[0.8]], [[0.3, 0.1], [0.1, 0.5]])),
            sv_spec(STAR),
            sv_spec(SvParams(0.2, 1.5, -0.6)),
            iid_gaussian_spec(0.5, 2.0),
        ]
        for spec in specs:
            for seed in (0, 16, 20260808):
                b3 = positivity_audit(spec, seed=seed)[0]
                assert b3.assumption == "B3"
                assert b3.statistic == per_pair_b3(spec, seed)


class TestSerialization:
    def test_jsonl_records(self, tmp_path):
        conv, logmom = tightness_audit_sv(STAR, BOX, [100.0], sims=1_000, seed=19)
        path = tmp_path / "audit.jsonl"
        write_audit_jsonl([conv, logmom], path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert set(rec) == {"assumption", "status", "statistic", "ci_lo", "ci_hi", "seed", "sims", "detail"}
        assert rec["assumption"] == "B5.conv"

    def test_jsonl_deterministic(self, tmp_path):
        r = positivity_audit(scalar_ssm(0.4), seed=20)
        write_audit_jsonl(r, tmp_path / "a.jsonl")
        write_audit_jsonl(r, tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
