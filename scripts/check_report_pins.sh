#!/usr/bin/env bash
# Check that the fixture pack and the six seeded benchmark corpora give the
# pinned reports: `analyze` exits 2 on the fixture pack, and each report's
# sha256 starts with its pinned 16 hex digits.  Needs only the standard
# library; run from the root of a source checkout:
#
#     scripts/check_report_pins.sh WORK_DIR
#
# WORK_DIR (created if missing) receives the packs, corpora and reports.
# Exits 0 when every check holds, 1 otherwise.
set -u
work=${1:?usage: scripts/check_report_pins.sh WORK_DIR}
mkdir -p "$work"
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
status=0

check_digest() {  # label, report file, pinned digest
  local got
  got=$(sha256sum "$2" | cut -c1-16)
  echo "$1: sha256 $got, pinned $3"
  test "$got" = "$3" || status=1
}

python3 scripts/build_fixture_pack.py "$work/pack" > /dev/null
for format in json markdown; do
  code=0
  python3 -m sso_auditor.cli analyze "$work/pack" --format "$format" \
    > "$work/pack.$format" || code=$?
  echo "fixture pack, --format $format: exit $code"
  test "$code" -eq 2 || status=1
done
check_digest "fixture pack JSON" "$work/pack.json" 76cce4ffbfc9446f
check_digest "fixture pack Markdown" "$work/pack.markdown" 979ee58c45927fe1

while read -r workload seed want; do
  dir="$work/corpus-$workload-$seed"
  python3 perfbench/corpus.py --workload "$workload" --seed "$seed" "$dir" > /dev/null
  case "$workload" in privacy-*) command=privacy ;; *) command=analyze ;; esac
  code=0
  python3 -m sso_auditor.cli "$command" "$dir" > "$dir.json" || code=$?
  echo "$workload seed $seed: exit $code"
  check_digest "$workload seed $seed" "$dir.json" "$want"
done <<'PINS'
analyze-query 1 ba2153672c48a2e5
analyze-crawl 1 e9bb0276f5c1ff28
privacy-visits 1 6411819361afb8cd
analyze-query 2 9c53a662c2497a76
analyze-crawl 2 f7db6e12945c6dfe
privacy-visits 2 f1bf3fdd6a92af2e
PINS
exit $status
