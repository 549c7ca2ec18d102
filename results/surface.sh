#!/usr/bin/env bash
# Writes each workspace crate's public surface to results/surface/<crate>.txt,
# or with --check compares it with the committed lists and prints `diff -u`
# of every list that moved. A line is `kind path`: a public item reachable
# from the crate root, under every path that reaches it (a re-export and
# the public module that defines it are two lines), with fields, variants
# and inherent methods as `Type::name`. `#[doc(hidden)]` items (the
# source-compatibility shims the frozen benchmark still calls) are listed
# and end in ` hidden`; a re-export of another crate's item is
# `use path = source`. Trait impls are not listed.
#
# Needs a nightly toolchain whose rustdoc writes JSON format 57
# (nightly-2026-05-19) and jq. It runs rustup's `nightly`, or the
# toolchain RUSTUP_TOOLCHAIN names; a different format version stops it.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
check=false
if [ "${1:-}" = --check ]; then check=true; fi
toolchain=${RUSTUP_TOOLCHAIN:-nightly}
format=57
target=$root/target/surface

# List one crate's rustdoc JSON ($1) as sorted `kind path` lines.
list() {
    jq -r '
      . as $doc
      | def item($id): $doc.index[$id | tostring];
        def hidden: any(.attrs[]?; (.other? // "") | test("doc\\(hidden\\)"));
        def line($kind; $path): $kind + " " + $path + (if hidden then " hidden" else "" end);
        def kind: {module: "mod", struct: "struct", enum: "enum", union: "union",
                   trait: "trait", function: "fn", constant: "const", static: "static",
                   type_alias: "type", macro: "macro", assoc_const: "const",
                   assoc_type: "type"}[.inner | keys[0]] // (.inner | keys[0]);
        # The public items of the inherent impls among $ids, under $q.
        def inherent($q; $ids):
          $ids[] | item(.) | select(.inner.impl.trait == null and (.inner.impl.is_synthetic | not)
                                    and .inner.impl.blanket_impl == null)
          | .inner.impl.items[] | item(.) | select(.visibility == "public")
          | line(kind; $q + "::" + .name);
        def walk($p; $id; $name):
          item($id) as $it
          | ($p + "::" + ($name // $it.name)) as $q
          | ($it.inner | keys[0]) as $k
          | if $k == "use" then
              $it.inner.use as $u
              | if $u.id == null or item($u.id) == null then
                  "use " + $p + "::" + $u.name + " = " + $u.source
                elif $u.is_glob then
                  item($u.id).inner.module.items[] as $c | walk($p; $c; null)
                else walk($p; $u.id; $u.name) end
            else
              ($it | line(kind; $q)),
              if $k == "module" then
                $it.inner.module.items[] as $c | walk($q; $c; null)
              elif $k == "struct" then
                ($it.inner.struct.kind
                 | if type == "object" then (.plain.fields // .tuple // [])[] else empty end
                 | select(. != null) | item(.) | select(.visibility == "public")
                 | line("field"; $q + "::" + .name)),
                inherent($q; $it.inner.struct.impls)
              elif $k == "enum" then
                ($it.inner.enum.variants[] | item(.) | line("variant"; $q + "::" + .name)),
                inherent($q; $it.inner.enum.impls)
              elif $k == "trait" then
                $it.inner.trait.items[] | item(.) | line(kind; $q + "::" + .name)
              else empty end
            end;
        item($doc.root) as $r
        | $r.inner.module.items[] as $c | walk($r.name; $c; null)
    ' "$1" | LC_ALL=C sort -u
}

mkdir -p "$target"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
stale=()
for dir in crates/*/; do
    pkg=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$dir/Cargo.toml" | head -n 1)
    json=$target/doc/${pkg//-/_}.json
    rm -f "$json"
    CARGO_TARGET_DIR=$target cargo "+$toolchain" rustdoc -q --offline -p "$pkg" --lib -- \
        -Z unstable-options --output-format json --document-hidden-items
    got=$(jq .format_version "$json")
    if [ "$got" != "$format" ]; then
        echo "$json: rustdoc JSON format $got, this script reads $format" >&2
        exit 2
    fi
    list "$json" >"$out/$pkg.txt"
    if ! $check; then
        mkdir -p results/surface
        cp "$out/$pkg.txt" "results/surface/$pkg.txt"
    elif ! cmp -s "results/surface/$pkg.txt" "$out/$pkg.txt"; then
        diff -uN "results/surface/$pkg.txt" "$out/$pkg.txt" >&2 || true
        stale+=("$pkg")
    fi
done

if [ ${#stale[@]} -gt 0 ]; then
    echo "public surface moved: ${stale[*]} (re-record with results/surface.sh)" >&2
    exit 1
fi
