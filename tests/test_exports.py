import cliffsynth


class TestExportList:
    def test_every_exported_name_resolves(self):
        # getattr loads the lazy `unitary` names too
        missing = [name for name in cliffsynth.__all__ if not hasattr(cliffsynth, name)]
        assert missing == []

    def test_no_duplicates(self):
        assert len(cliffsynth.__all__) == len(set(cliffsynth.__all__))

    def test_lazy_names_are_exported(self):
        assert cliffsynth._UNITARY_NAMES <= set(cliffsynth.__all__)

    def test_exports_are_listed_by_dir(self):
        assert set(cliffsynth.__all__) <= set(dir(cliffsynth))

    def test_retired_names_are_gone(self):
        for name in ("act_left", "symplectic_form"):
            assert not hasattr(cliffsynth, name)
            assert not hasattr(cliffsynth.symplectic, name)
        assert not hasattr(cliffsynth.Dimension.of(6), "even")
