"""The one append log (`repro.applog`) through both of its journals.

The sweep run journal (`repro.sim.journal`) and the tenant journals
(`repro.serve.tenant_journal`) are the same `AppendLog`, so the same
crash rules must hold through each of them:

* a cut anywhere inside the last record drops that record whole,
  unless only its newline was cut; the records before it survive, and
  so does a record appended after the resume, on a clean line;
* a journal refused on load (another fingerprint, another schema
  version, a tampered header) is left byte for byte as it was, torn
  tail included.
"""

import pytest

from repro.applog import parse_record_line, record_line
from repro.errors import JournalMismatchError
from repro.serve.tenant import TenantSpec
from repro.serve.tenant_journal import TenantJournal, journal_path
from repro.sim import SimConfig
from repro.sim.journal import RunJournal
from repro.sim.results import SimResult

CONFIG = SimConfig(num_refs=123)
SCHEMES = ("radix", "lvm", "ecpt")


class RunLog:
    """The run journal; an item is a cell's scheme name."""

    def path(self, tmp_path):
        return tmp_path / "sweep.jsonl"

    def write(self, tmp_path, items):
        with RunJournal.open(self.path(tmp_path), CONFIG) as journal:
            for item in items:
                journal.record_result("gups", item, False, self._cell(item))

    def append_after_resume(self, tmp_path, item):
        with RunJournal.open(self.path(tmp_path), CONFIG, resume=True) as journal:
            journal.record_result("gups", item, False, self._cell(item))

    def load(self, tmp_path):
        with RunJournal.open(self.path(tmp_path), CONFIG, resume=True) as journal:
            return [key.split("/")[1] for key in journal.completed]

    @staticmethod
    def _cell(scheme):
        return SimResult("gups", scheme, False, 1, 2, 3.0)


class TenantLog:
    """A tenant journal; item ``SCHEMES[i]`` is an mmap at VPN 64·i."""

    spec = TenantSpec(name="t", scheme="radix")

    def path(self, tmp_path):
        return journal_path(tmp_path, "t")

    def write(self, tmp_path, items):
        with TenantJournal.create(tmp_path, self.spec) as journal:
            for seq, item in enumerate(items, start=1):
                journal.append_event(seq, "mmap", self._args(item))

    def append_after_resume(self, tmp_path, item):
        journal, events = TenantJournal.load(tmp_path, "t")
        with journal:
            journal.append_event(len(events) + 1, "mmap", self._args(item))

    def load(self, tmp_path):
        journal, events = TenantJournal.load(tmp_path, "t")
        journal.close()
        assert [e["seq"] for e in events] == list(range(1, len(events) + 1))
        return [SCHEMES[e["args"]["start_vpn"] // 64] for e in events]

    @staticmethod
    def _args(item):
        return {"start_vpn": 64 * SCHEMES.index(item), "pages": 1}


@pytest.mark.parametrize("log", [RunLog(), TenantLog()], ids=["run", "tenant"])
def test_cut_at_every_byte_of_the_last_record_then_append(tmp_path, log):
    """Load, append one record, load again, for every cut inside the
    last record: the earlier records survive, the last one only when
    just its newline was cut, and the appended one always."""
    log.write(tmp_path, SCHEMES[:2])
    path = log.path(tmp_path)
    raw = path.read_bytes()
    last_line_start = raw[:-1].rfind(b"\n") + 1
    for offset in range(last_line_start, len(raw)):
        path.write_bytes(raw[:offset])
        log.append_after_resume(tmp_path, SCHEMES[2])
        kept_last = offset == len(raw) - 1
        expected = ["radix", "lvm", "ecpt"] if kept_last else ["radix", "ecpt"]
        assert log.load(tmp_path) == expected, offset
        assert path.read_bytes().endswith(b"\n"), offset


def _torn(path):
    """Tear the last record mid-line; returns the bytes left."""
    path.write_bytes(path.read_bytes()[:-10])
    return path.read_bytes()


def _forge_header(path, edit):
    """Replace the header with ``edit``'s checksum-valid forgery."""
    lines = path.read_bytes().split(b"\n")
    header = parse_record_line(lines[0])
    edit(header)
    lines[0] = record_line(header).encode()
    path.write_bytes(b"\n".join(lines))


class TestRefusedJournalIsUntouched:
    def test_run_journal_of_another_config(self, tmp_path):
        log = RunLog()
        log.write(tmp_path, SCHEMES)
        before = _torn(log.path(tmp_path))
        with pytest.raises(JournalMismatchError, match="different config"):
            RunJournal.open(log.path(tmp_path), SimConfig(num_refs=456), resume=True)
        assert log.path(tmp_path).read_bytes() == before

    @pytest.mark.parametrize("log", [RunLog(), TenantLog()], ids=["run", "tenant"])
    def test_journal_of_another_schema_version(self, tmp_path, log):
        log.write(tmp_path, SCHEMES)
        path = log.path(tmp_path)
        _forge_header(path, lambda header: header.update(version=99))
        before = _torn(path)
        with pytest.raises(JournalMismatchError, match="schema version"):
            log.load(tmp_path)
        assert path.read_bytes() == before

    def test_tampered_tenant_header(self, tmp_path):
        log = TenantLog()
        log.write(tmp_path, SCHEMES)
        path = log.path(tmp_path)
        _forge_header(path, lambda header: header["spec"].update(scheme="lvm"))
        before = _torn(path)
        with pytest.raises(JournalMismatchError, match="tampered"):
            log.load(tmp_path)
        assert path.read_bytes() == before
