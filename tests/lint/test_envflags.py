"""FLG001 and the env-flag registry it enforces."""

import pytest

from repro.lint import lint_source
from repro.util.flags import FLAGS, flag, flag_enabled, flag_value


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
        # Tests set flags; only reads bypass the registry.
        assert not flg_rules('import os\nos.environ["REPRO_FOO"] = "1"\n')

    def test_non_repro_keys_are_not_flagged(self):
        assert not flg_rules('import os\nx = os.getenv("HOME")\n')

    def test_registry_reads_are_not_flagged(self):
        # The registry reads through the declared flag name, which is not
        # a literal REPRO_* string at the call site.
        assert not flg_rules(
            "import os\n"
            "def raw(self):\n"
            "    return os.environ.get(self.name, self.default)\n"
        )


class TestRegistry:
    def test_declared_flag_reads_environment_at_call_time(self, monkeypatch):
        monkeypatch.setenv("REPRO_REGEN_GOLDEN", "0")
        assert flag_enabled("REPRO_REGEN_GOLDEN") is False
        monkeypatch.setenv("REPRO_REGEN_GOLDEN", "1")
        assert flag_enabled("REPRO_REGEN_GOLDEN") is True

    def test_unset_flag_uses_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_REGEN_GOLDEN", raising=False)
        assert flag_value("REPRO_REGEN_GOLDEN") == "0"
        assert flag_enabled("REPRO_REGEN_GOLDEN") is False

    def test_undeclared_flag_raises(self):
        with pytest.raises(KeyError, match="undeclared"):
            flag("REPRO_NOT_A_FLAG")

    def test_inventory_is_pinned(self):
        # A new flag is a new configuration axis: adding one must show up
        # here as a reviewed diff.
        assert set(FLAGS) == {"REPRO_REGEN_GOLDEN"}

    def test_every_declared_flag_documents_its_reader(self):
        for name, spec in FLAGS.items():
            assert spec.doc, name
            assert "Read by" in spec.doc, name
