import hashlib
import json

import pytest


def _dump(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@pytest.fixture
def resign():
    """Rewrite a model file as a hand edit would, then sign it again.

    `resign(path, edit, text)` hands `edit` the file as one dict, the body's
    fields plus the header's `format_version`, to change in place; `text`
    then edits the body's canonical text.  The header's checksum is taken
    over the body as written, so a load gets past it to the edited field.
    """
    def rewrite(path, edit=lambda doc: None, text=lambda body: body):
        with open(path, encoding="utf-8") as fh:
            header, body = json.loads(fh.readline()), json.loads(fh.read())
        doc = dict(body, format_version=header["format_version"])
        edit(doc)
        header = {"format_version": doc.pop("format_version")}
        body = text(_dump(doc))
        header["checksum"] = hashlib.sha256(body.encode()).hexdigest()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_dump(header) + "\n" + body)
    return rewrite


@pytest.fixture
def dispatches(monkeypatch):
    """The kernel pool's dispatches during a test: `gpr._kernel_pool` is
    wrapped so that each `_map_blocks` call that runs on the pool appends
    one entry, the number of tasks it submits.  A call run on its own
    thread appends nothing."""
    from hdmrnet import gpr

    log = []
    kernel_pool = gpr._kernel_pool

    class CountingPool:
        def __init__(self):
            self.executor, self.entry = kernel_pool(), len(log)
            log.append(0)

        def submit(self, fn, *args):
            log[self.entry] += 1
            return self.executor.submit(fn, *args)

    monkeypatch.setattr(gpr, "_kernel_pool", CountingPool)
    return log
