import cliffsynth


class TestExportList:
    def test_every_exported_name_resolves(self):
        # getattr loads the lazy `unitary` names too
        missing = [name for name in cliffsynth.__all__ if not hasattr(cliffsynth, name)]
        assert missing == []

    def test_no_duplicates(self):
        assert len(cliffsynth.__all__) == len(set(cliffsynth.__all__))

    def test_lazy_names_are_exported(self):
        assert set(cliffsynth._EXPORTS) == set(cliffsynth.__all__)

    def test_exports_are_listed_by_dir(self):
        assert set(cliffsynth.__all__) <= set(dir(cliffsynth))

    def test_retired_names_are_gone(self):
        from cliffsynth import cli, embedding, modring, pauli, unitary

        for name in ("act_left", "symplectic_form"):
            assert not hasattr(cliffsynth, name)
            assert not hasattr(cliffsynth.symplectic, name)
        assert not hasattr(cliffsynth.Dimension.of(6), "even")
        # the scale caps live in errors.SCALE_CAPS alone
        for module in (cliffsynth, modring, unitary, embedding, cli):
            for name in (
                "MAX_DIMENSION",
                "MAX_DENSE_SIDE",
                "MAX_SUM_CHECK_SIDE",
                "MAX_EMBED_CHECK_D",
                "_check_scale",
            ):
                assert not hasattr(module, name), (module.__name__, name)
        # reference helpers that only the tests use
        for module, name in ((unitary, "relative_phase"), (pauli, "sip_matrix_form")):
            assert not hasattr(cliffsynth, name) and not hasattr(module, name)
        assert not hasattr(cliffsynth.PauliWord, "vector")
        assert "omega_hat" not in cliffsynth.__all__ and not hasattr(cliffsynth, "omega_hat")
        assert not hasattr(cliffsynth.Embedding, "shift_protection")
        # `sequence_matrix(seq)` is the one spelling
        assert not hasattr(cliffsynth.GateSequence, "matrix")
