"""Tests for the symmetric (original-FNO) spectral filter convention.

The symmetric layers consume half spectra end-to-end through the
compiled packed-real R2C/C2R plans.  Before that rewiring they realised
the same operator over the full C2C transform (mirror-and-double); the
``TestHalfSpectrumRewiring`` classes below replay that legacy formula
inline and assert the new path reproduces it to tolerance, forward and
backward, including the ``per_mode=False`` dispatch to the compiled
shared-weight CGEMM executor.
"""

import numpy as np
import pytest

from repro.nn.modules import SpectralConv, SpectralConv1d, SpectralConv2d


def _rfft_oracle(x, weight, modes, per_mode):
    """The original FNO layer via numpy.fft.rfft/irfft."""
    n = x.shape[-1]
    xk = np.fft.rfft(x, axis=-1)[..., :modes]
    if per_mode:
        yk = np.einsum("bim,iom->bom", xk, weight)
    else:
        yk = np.einsum("bim,io->bom", xk, weight)
    out_ft = np.zeros((x.shape[0], yk.shape[1], n // 2 + 1), dtype=complex)
    out_ft[..., :modes] = yk
    return np.fft.irfft(out_ft, n=n, axis=-1)


def _rfft2_oracle(x, weight, modes_x, modes_y, per_mode):
    """The symmetric 2-D layer via numpy: rfft along Y, C2C along X,
    single kept corner, irfft2-style reconstruction."""
    b, _, dim_x, dim_y = x.shape
    xk = np.fft.rfft(x, axis=3)[..., :modes_y]
    xk = np.fft.fft(xk, axis=2)[:, :, :modes_x]
    if per_mode:
        yk = np.einsum("bimn,iomn->bomn", xk, weight)
    else:
        yk = np.einsum("bimn,io->bomn", xk, weight)
    out_ft = np.zeros((b, yk.shape[1], dim_x, dim_y // 2 + 1), dtype=complex)
    out_ft[:, :, :modes_x, :modes_y] = yk
    return np.fft.irfft(np.fft.ifft(out_ft, axis=2), n=dim_y, axis=3)


def _legacy_c2c_forward(x, weight, modes, per_mode):
    """The pre-rewiring symmetric forward: truncated full-C2C transform,
    mirror-and-double reconstruction (frozen from the seed layer)."""
    from repro.fft import legacy

    n = x.shape[-1]
    xk = legacy.truncated_fft(x.astype(complex), modes, axis=-1)
    if per_mode:
        yk = np.einsum("bim,iom->bom", xk, weight)
    else:
        yk = np.einsum("bim,io->bom", xk, weight)
    base = legacy.truncated_ifft(yk, n, axis=-1).real
    return 2.0 * base - yk[..., 0:1].real / n


def _legacy_c2c_backward(x, weight, grad, modes, per_mode):
    """The pre-rewiring symmetric backward (input and weight cotangents),
    replayed over the frozen legacy transforms."""
    from repro.fft import legacy

    n = x.shape[-1]
    xk = legacy.truncated_fft(x.astype(complex), modes, axis=-1)
    g_yk = 2.0 * legacy.truncated_fft(grad.astype(complex), modes, axis=-1) / n
    g_yk[..., 0] -= np.sum(grad, axis=-1) / n
    if per_mode:
        w_grad = np.einsum("bim,bom->iom", np.conj(xk), g_yk)
        g_xk = np.einsum("bom,iom->bim", g_yk, np.conj(weight))
    else:
        w_grad = np.einsum("bim,bom->io", np.conj(xk), g_yk)
        g_xk = np.einsum("bom,io->bim", g_yk, np.conj(weight))
    g_x = legacy.truncated_ifft(g_xk, n, axis=-1).real * n
    return g_x, w_grad


class TestSymmetricForward:
    @pytest.mark.parametrize("per_mode", [True, False])
    def test_matches_rfft_oracle(self, rng, per_mode):
        m = SpectralConv1d(3, 4, 8, rng, per_mode=per_mode, symmetric=True)
        x = rng.standard_normal((2, 3, 32))
        assert np.allclose(m(x), _rfft_oracle(x, m.weight.value, 8, per_mode),
                           atol=1e-10)

    def test_output_genuinely_real_operator(self, rng):
        """Identity weights + symmetric filter = ideal real low-pass."""
        m = SpectralConv1d(1, 1, 4, rng, per_mode=False, symmetric=True)
        m.weight.value = np.ones((1, 1), dtype=complex)
        x = rng.standard_normal((1, 1, 32))
        y = m(x)
        xk = np.fft.rfft(x, axis=-1)
        xk[..., 4:] = 0
        assert np.allclose(y, np.fft.irfft(xk, n=32, axis=-1), atol=1e-10)

    def test_asymmetric_convention_differs(self, rng):
        """The paper's first-bins filter is a different operator."""
        x = rng.standard_normal((1, 2, 32))
        sym = SpectralConv1d(2, 2, 4, rng, per_mode=False, symmetric=True)
        asym = SpectralConv1d(2, 2, 4, rng, per_mode=False, symmetric=False)
        asym.weight.value = sym.weight.value.copy()
        assert not np.allclose(sym(x), asym(x), atol=1e-6)

    def test_modes_cap(self, rng):
        m = SpectralConv1d(1, 1, 20, rng, symmetric=True)
        with pytest.raises(ValueError):
            m(rng.standard_normal((1, 1, 32)))


class TestSymmetricBackward:
    @pytest.mark.parametrize("per_mode", [True, False])
    def test_input_gradient_fd(self, rng, per_mode):
        m = SpectralConv1d(2, 3, 4, rng, per_mode=per_mode, symmetric=True)
        x = rng.standard_normal((2, 2, 16))
        y = m(x)
        g = rng.standard_normal(y.shape)
        gx = m.backward(g.copy())
        eps = 1e-6
        for _ in range(5):
            idx = tuple(int(rng.integers(0, s)) for s in x.shape)
            xp = x.copy(); xp[idx] += eps
            xm = x.copy(); xm[idx] -= eps
            fd = (np.sum(m.forward(xp) * g) - np.sum(m.forward(xm) * g)) / (
                2 * eps
            )
            assert abs(fd - gx[idx]) / max(abs(fd), 1.0) < 1e-5

    def test_weight_gradient_fd(self, rng):
        m = SpectralConv1d(2, 2, 4, rng, per_mode=True, symmetric=True)
        x = rng.standard_normal((2, 2, 16))
        y = m(x)
        g = rng.standard_normal(y.shape)
        m.zero_grad()
        m.forward(x)
        m.backward(g.copy())
        an = m.weight.grad.copy()
        eps = 1e-6
        for _ in range(4):
            idx = tuple(int(rng.integers(0, s)) for s in m.weight.value.shape)
            for delta, part in ((eps, "re"), (1j * eps, "im")):
                orig = m.weight.value[idx]
                m.weight.value[idx] = orig + delta
                fp = np.sum(m.forward(x) * g)
                m.weight.value[idx] = orig - delta
                fm = np.sum(m.forward(x) * g)
                m.weight.value[idx] = orig
                fd = (fp - fm) / (2 * eps)
                got = an[idx].real if part == "re" else an[idx].imag
                assert abs(fd - got) / max(abs(fd), 1.0) < 1e-5

    def test_training_with_symmetric_layer(self, rng):
        """The symmetric layer learns a shift operator."""
        from repro.nn import Adam
        from repro.nn.losses import mse_loss

        m = SpectralConv1d(1, 1, 8, rng, per_mode=True, symmetric=True)
        opt = Adam([m.weight], lr=5e-2)
        x = rng.standard_normal((16, 1, 32))
        y = np.roll(x, 1, axis=-1)
        first = None
        for _ in range(80):
            opt.zero_grad()
            pred = m(x)
            loss, grad = mse_loss(pred, y)
            if first is None:
                first = loss
            m.backward(grad)
            opt.step()
        assert loss < 0.6 * first


class TestHalfSpectrumRewiring1d:
    """The rfft/irfft rewiring reproduces the pre-rewiring C2C formula."""

    @pytest.mark.parametrize("per_mode", [True, False])
    @pytest.mark.parametrize("n,modes", [(32, 8), (64, 32), (16, 4)])
    def test_forward_matches_legacy_formula(self, rng, per_mode, n, modes):
        m = SpectralConv1d(3, 4, modes, rng, per_mode=per_mode, symmetric=True)
        x = rng.standard_normal((2, 3, n))
        ref = _legacy_c2c_forward(x, m.weight.value, modes, per_mode)
        assert np.allclose(m(x), ref, atol=1e-10)

    @pytest.mark.parametrize("per_mode", [True, False])
    def test_backward_matches_legacy_formula(self, rng, per_mode):
        m = SpectralConv1d(2, 3, 4, rng, per_mode=per_mode, symmetric=True)
        x = rng.standard_normal((3, 2, 16))
        y = m(x)
        g = rng.standard_normal(y.shape)
        m.zero_grad()
        m.forward(x)
        g_x = m.backward(g.copy())
        ref_gx, ref_gw = _legacy_c2c_backward(
            x, m.weight.value, g, 4, per_mode
        )
        assert np.allclose(g_x, ref_gx, atol=1e-10)
        assert np.allclose(m.weight.grad, ref_gw, atol=1e-10)

    def test_per_mode_false_dispatches_to_compiled_executor(self, rng):
        """The shared-weight symmetric forward runs the compiled
        panel-CGEMM executor and agrees with the inline einsum."""
        m = SpectralConv1d(5, 3, 8, rng, per_mode=False, symmetric=True)
        x = rng.standard_normal((4, 5, 64))
        y = m(x)
        assert not np.iscomplexobj(y)
        assert np.allclose(
            y, _rfft_oracle(x, m.weight.value, 8, per_mode=False), atol=1e-10
        )

    def test_half_spectrum_cached_for_backward(self, rng):
        """The cached activation spectrum is the *half* spectrum prefix,
        not the full C2C truncation."""
        m = SpectralConv1d(2, 2, 6, rng, symmetric=True)
        x = rng.standard_normal((1, 2, 32))
        m(x)
        assert m._xk.shape == (1, 2, 6)
        assert np.allclose(
            m._xk, np.fft.rfft(x, axis=-1)[..., :6], atol=1e-10
        )


class TestSymmetric2dForward:
    @pytest.mark.parametrize("per_mode", [True, False])
    def test_matches_rfft2_oracle(self, rng, per_mode):
        m = SpectralConv2d(3, 4, 4, 8, rng, per_mode=per_mode, symmetric=True)
        x = rng.standard_normal((2, 3, 16, 32))
        ref = _rfft2_oracle(x, m.weight.value, 4, 8, per_mode)
        assert np.allclose(m(x), ref, atol=1e-9)

    def test_output_is_real_dtype(self, rng):
        m = SpectralConv2d(2, 2, 4, 4, rng, symmetric=True)
        y = m(rng.standard_normal((1, 2, 16, 16)))
        assert not np.iscomplexobj(y)

    def test_identity_weights_low_pass(self, rng):
        """Identity shared weights = ideal separable low-pass along Y."""
        m = SpectralConv2d(1, 1, 16, 4, rng, per_mode=False, symmetric=True)
        m.weight.value = np.ones((1, 1), dtype=complex)
        x = rng.standard_normal((1, 1, 16, 32))
        y = m(x)
        xk = np.fft.rfft(x, axis=3)
        xk[..., 4:] = 0
        assert np.allclose(y, np.fft.irfft(xk, n=32, axis=3), atol=1e-10)

    def test_asymmetric_convention_differs(self, rng):
        x = rng.standard_normal((1, 2, 16, 32))
        sym = SpectralConv2d(2, 2, 4, 4, rng, per_mode=False, symmetric=True)
        asym = SpectralConv2d(2, 2, 4, 4, rng, per_mode=False, symmetric=False)
        asym.weight.value = sym.weight.value.copy()
        assert not np.allclose(sym(x), asym(x), atol=1e-6)

    def test_modes_cap(self, rng):
        m = SpectralConv2d(1, 1, 4, 20, rng, symmetric=True)
        with pytest.raises(ValueError):
            m(rng.standard_normal((1, 1, 16, 32)))


class TestSymmetric2dBackward:
    @pytest.mark.parametrize("per_mode", [True, False])
    def test_input_gradient_fd(self, rng, per_mode):
        m = SpectralConv2d(2, 3, 4, 4, rng, per_mode=per_mode, symmetric=True)
        x = rng.standard_normal((2, 2, 8, 16))
        y = m(x)
        g = rng.standard_normal(y.shape)
        gx = m.backward(g.copy())
        eps = 1e-6
        for _ in range(5):
            idx = tuple(int(rng.integers(0, s)) for s in x.shape)
            xp = x.copy(); xp[idx] += eps
            xm = x.copy(); xm[idx] -= eps
            fd = (np.sum(m.forward(xp) * g) - np.sum(m.forward(xm) * g)) / (
                2 * eps
            )
            assert abs(fd - gx[idx]) / max(abs(fd), 1.0) < 1e-5

    def test_weight_gradient_fd(self, rng):
        m = SpectralConv2d(2, 2, 2, 4, rng, per_mode=True, symmetric=True)
        x = rng.standard_normal((2, 2, 8, 16))
        y = m(x)
        g = rng.standard_normal(y.shape)
        m.zero_grad()
        m.forward(x)
        m.backward(g.copy())
        an = m.weight.grad.copy()
        eps = 1e-6
        for _ in range(4):
            idx = tuple(int(rng.integers(0, s)) for s in m.weight.value.shape)
            for delta, part in ((eps, "re"), (1j * eps, "im")):
                orig = m.weight.value[idx]
                m.weight.value[idx] = orig + delta
                fp = np.sum(m.forward(x) * g)
                m.weight.value[idx] = orig - delta
                fm = np.sum(m.forward(x) * g)
                m.weight.value[idx] = orig
                fd = (fp - fm) / (2 * eps)
                got = an[idx].real if part == "re" else an[idx].imag
                assert abs(fd - got) / max(abs(fd), 1.0) < 1e-5

    def test_training_with_symmetric_2d_layer(self, rng, rng2):
        """The symmetric 2-D layer recovers a teacher with the same
        mode budget (the target is exactly representable)."""
        from repro.nn import Adam
        from repro.nn.losses import mse_loss

        teacher = SpectralConv2d(1, 1, 4, 8, rng2, per_mode=True,
                                 symmetric=True)
        m = SpectralConv2d(1, 1, 4, 8, rng, per_mode=True, symmetric=True)
        opt = Adam([m.weight], lr=5e-2)
        x = rng.standard_normal((8, 1, 8, 32))
        y = teacher(x)
        first = None
        for _ in range(80):
            opt.zero_grad()
            pred = m(x)
            loss, grad = mse_loss(pred, y)
            if first is None:
                first = loss
            m.backward(grad)
            opt.step()
        assert loss < 0.1 * first


class TestPrunedPlanRouting:
    """The symmetric layers consume the cached pruned-R2C/C2R plan
    family end-to-end: the spectrum a layer caches *is* the pruned
    plan's output, the executor accepts that spectrum back bit-exactly,
    and width disagreements raise the typed mismatch error instead of
    mis-slicing silently."""

    def test_cached_spectrum_is_the_pruned_plan_output(self, rng):
        from repro.fft import compiled

        m = SpectralConv1d(2, 2, 6, rng, symmetric=True)
        x = rng.standard_normal((3, 2, 32))
        m(x)
        plan = compiled.get_pruned_rfft_plan(32, 6, np.float64)
        expected = plan.execute(
            np.ascontiguousarray(x.reshape(-1, 32))
        ).reshape(3, 2, 6)
        assert m._xk.dtype == expected.dtype
        assert np.array_equal(
            m._xk.view(np.float64), expected.view(np.float64)
        )

    def test_forward_bit_identical_to_explicit_pruned_replay(self, rng):
        """The per-mode symmetric forward is exactly the pruned-plan
        composition truncated_rfft -> einsum -> padded_irfft."""
        from repro.fft.real import padded_irfft, truncated_rfft

        m = SpectralConv1d(3, 4, 8, rng, per_mode=True, symmetric=True)
        x = rng.standard_normal((2, 3, 32))
        got = m(x)
        xk = np.ascontiguousarray(truncated_rfft(x, 8, axis=-1))
        yk = np.einsum("bim,iom->bom", xk, m.weight.value)
        ref = padded_irfft(yk, 32, axis=-1)
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)

    def test_executor_internal_vs_precomputed_spectrum_bit_identical(
            self, rng):
        """CompiledSpectralConv1D produces the same bytes whether it
        computes the truncated spectrum itself or receives it — both
        sides of the rewire route through one cached pruned plan."""
        from repro.core.compiled import CompiledSpectralConv1D
        from repro.fft.real import truncated_rfft

        w = (rng.standard_normal((5, 3))
             + 1j * rng.standard_normal((5, 3))).astype(np.complex64)
        x = rng.standard_normal((4, 5, 64)).astype(np.float32)
        conv = CompiledSpectralConv1D(w, 8, symmetric=True)
        internal = conv(x)
        passed = conv(x, xk_trunc=truncated_rfft(x, 8, axis=-1))
        assert internal.dtype == passed.dtype
        assert np.array_equal(
            internal.view(np.float32), passed.view(np.float32)
        )

    def test_width_disagreement_raises_typed_error(self, rng):
        from repro.core.compiled import CompiledSpectralConv1D
        from repro.fft.compiled import PrunedPartMismatchError

        w = (rng.standard_normal((5, 3))
             + 1j * rng.standard_normal((5, 3))).astype(np.complex64)
        x = rng.standard_normal((4, 5, 64)).astype(np.float32)
        conv = CompiledSpectralConv1D(w, 8, symmetric=True)
        bad = np.zeros((4, 5, 9), dtype=np.complex64)
        with pytest.raises(PrunedPartMismatchError):
            conv(x, xk_trunc=bad)
        # the typed error is still a ValueError for legacy handlers
        assert issubclass(PrunedPartMismatchError, ValueError)

    @pytest.mark.parametrize("modes", [3, 5, 7])
    @pytest.mark.parametrize("per_mode", [True, False])
    def test_non_pow2_modes_match_rfft_oracle(self, rng, modes, per_mode):
        """Non-power-of-two mode counts exercise the decomposition
        strategy (part < q) inside the layer."""
        m = SpectralConv1d(2, 3, modes, rng, per_mode=per_mode,
                           symmetric=True)
        x = rng.standard_normal((2, 2, 64))
        assert np.allclose(
            m(x), _rfft_oracle(x, m.weight.value, modes, per_mode),
            atol=1e-9,
        )

    @pytest.mark.parametrize("modes_y", [3, 5])
    def test_2d_non_pow2_modes_match_rfft2_oracle(self, rng, modes_y):
        m = SpectralConv2d(2, 3, 4, modes_y, rng, per_mode=True,
                           symmetric=True)
        x = rng.standard_normal((2, 2, 16, 32))
        ref = _rfft2_oracle(x, m.weight.value, 4, modes_y, True)
        assert np.allclose(m(x), ref, atol=1e-9)

    def test_backward_consistent_after_rewire(self, rng):
        """The pruned-plan backward still matches finite differences at
        a non-power-of-two mode count."""
        m = SpectralConv1d(2, 2, 5, rng, per_mode=True, symmetric=True)
        x = rng.standard_normal((2, 2, 32))
        y = m(x)
        g = rng.standard_normal(y.shape)
        gx = m.backward(g.copy())
        eps = 1e-6
        for _ in range(4):
            idx = tuple(int(rng.integers(0, s)) for s in x.shape)
            xp = x.copy(); xp[idx] += eps
            xm = x.copy(); xm[idx] -= eps
            fd = (np.sum(m.forward(xp) * g) - np.sum(m.forward(xm) * g)) / (
                2 * eps
            )
            assert abs(fd - gx[idx]) / max(abs(fd), 1.0) < 1e-5


def _rfftn_oracle(x, weight, modes, per_mode):
    """The symmetric N-D layer via numpy.fft.rfftn/irfftn: the kept
    corner of the half spectrum (first bins along the leading axes)."""
    axes = tuple(range(2, x.ndim))
    corner = (Ellipsis,) + tuple(slice(0, m) for m in modes)
    xk = np.fft.rfftn(x, axes=axes)[corner]
    if per_mode:
        yk = np.einsum("bimnp,iomnp->bomnp", xk, weight)
    else:
        yk = np.einsum("bimnp,io->bomnp", xk, weight)
    half = (*x.shape[2:-1], x.shape[-1] // 2 + 1)
    out = np.zeros((x.shape[0], yk.shape[1], *half), dtype=complex)
    out[corner] = yk
    return np.fft.irfftn(out, s=x.shape[2:], axes=axes)


class TestSymmetric3d:
    """The symmetric N-D layer at rank 3: R2C/C2R on the last axis,
    first-bins C2C on each leading one (its finite-difference checks
    are in ``test_nn_modules.py``)."""

    @pytest.mark.parametrize("modes", [(4, 2, 2), (2, 3, 3)])
    @pytest.mark.parametrize("per_mode", [True, False])
    def test_matches_rfftn_oracle(self, rng, per_mode, modes):
        m = SpectralConv(3, 4, modes, rng, per_mode=per_mode, symmetric=True)
        x = rng.standard_normal((2, 3, 8, 4, 8))
        ref = _rfftn_oracle(x, m.weight.value, modes, per_mode)
        assert np.allclose(m(x), ref, atol=1e-10)

    def test_reanalysis_matches_the_skipped_transform_pair(self, rng):
        """The spectrum-resident step equals synthesising the output and
        re-analysing it, at rank 3 as at rank 1 and 2."""
        m = SpectralConv(2, 2, (4, 2, 2), rng, symmetric=True)
        x = rng.standard_normal((2, 2, 8, 4, 8))
        yk = m.apply_modes(m.spectrum(x))
        ref = m.spectrum(m.from_spectrum(yk, x.shape[2:]))
        assert np.allclose(m.reanalyze_spectrum(yk, x.shape[2:]), ref,
                           atol=1e-10)
