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
