"""FLG001: the middleware reads no REPRO_* environment variable."""

from repro.lint import lint_source


def flg_rules(source: str):
    return [d.rule for d in lint_source(source).diagnostics if d.rule == "FLG001"]


class TestRule:
    def test_os_getenv_with_repro_key_is_flagged(self):
        assert flg_rules('import os\nx = os.getenv("REPRO_REGEN_GOLDEN")\n')

    def test_environ_get_is_flagged(self):
        assert flg_rules('import os\nx = os.environ.get("REPRO_FOO", "1")\n')

    def test_environ_subscript_read_is_flagged(self):
        assert flg_rules('import os\nx = os.environ["REPRO_FOO"]\n')

    def test_environ_subscript_store_is_not_flagged(self):
        # Only reads add a configuration axis.
        assert not flg_rules('import os\nos.environ["REPRO_FOO"] = "1"\n')

    def test_non_repro_keys_are_not_flagged(self):
        assert not flg_rules('import os\nx = os.getenv("HOME")\n')

    def test_registry_reads_are_not_flagged(self):
        # A read through a non-literal key is not a literal REPRO_* string
        # at the call site.
        assert not flg_rules(
            "import os\n"
            "def raw(self):\n"
            "    return os.environ.get(self.name, self.default)\n"
        )

