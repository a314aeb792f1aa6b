#!/usr/bin/env bash
# The tier-1 gate runs: each function runs CLI commands end to end and checks what they print.
#
#   bash ci/gates.sh <gate>    gate: foliation spectrum solve failure_contract charges example_s9 perturbation
#
# Runs from the repository root, whatever the caller's directory; RUNNER_TEMP names a writable
# directory for the files a gate writes.  Like a workflow's bash step it stops at the first
# failing command, and exits nonzero when a check fails.
set -eo pipefail
cd "$(dirname "$0")/.."
: "${RUNNER_TEMP:?RUNNER_TEMP must name a writable directory}"

foliation() {
  out="$RUNNER_TEMP/foliate.csv"
  log="$(PYTHONPATH=src python -W error::RuntimeWarning -m stcmc foliate --data schwarzschild_graphical --mass 1 --u 1,0,0 \
    --sigma-list 20,40,80 --out "$out")"
  echo "$log"
  test "$(tail -n +2 "$out" | grep -c .)" -eq 3
  # consecutive leaves are strictly nested: every lapse flag is True
  python3 -c 'import re, sys; m = re.search(r"^lapse positivity along the sweep: \[(.*)\]$", sys.argv[1], re.M); sys.exit(m is None or any(f.strip() != "True" for f in m.group(1).split(",")))' "$log"
  # every leaf is accepted at the full band: its residual meets the default tol
  python3 -c 'import csv, sys; sys.exit(not all(float(row["residual"]) <= 1e-10 for row in csv.DictReader(open(sys.argv[1]))))' "$out"
}

spectrum() {
  # sigma 40 at lmax 24: both half-band certificates accept the leaf; sigma 20 at lmax 12: both refuse
  # it, so its spectrum goes on to the full band; sigma 20 at lmax 6: no half band, one full-band pass
  for args in "--sigma 40" "--sigma 20 --lmax 12" "--sigma 20 --lmax 6"; do
    log="$(PYTHONPATH=src python -W error::RuntimeWarning -m stcmc spectrum --data schwarzschild_graphical --mass 1 --u 1,0,0 $args)"
    echo "$log"
    # criterion 7's floor: sigma_min(L) >= 0.9 * 3|m_H|/sigma^3
    python3 -c 'import re, sys; m = re.search(r"sigma_min\(L\) = (\S+)\s+bound .* = (\S+)", sys.argv[1]); sys.exit(m is None or not float(m.group(1)) >= 0.9 * float(m.group(2)))' "$log"
  done
}

solve() {
  log="$(PYTHONPATH=src python -W error::RuntimeWarning -m stcmc solve --data schwarzschild_graphical --mass 1 --u 1,0,0 --sigma 60)"
  echo "$log"
  # criterion 3's bounds: residual sup <= 1e-10 within 8 Newton iterations (both stages)
  python3 -c 'import re, sys; m = re.search(r"converged in (\d+) iterations; residual sup (\S+)", sys.argv[1]); sys.exit(m is None or not (int(m.group(1)) <= 8 and float(m.group(2)) <= 1e-10))' "$log"
}

# a Newton trial that crosses the horizon is damped; the solve then fails with its context, exit 3
failure_contract() {
  set +e
  PYTHONPATH=src python -W error::RuntimeWarning -m stcmc solve --data schwarzschild --mass 1 --sigma 20 --r0 2.5 2> "$RUNNER_TEMP/solve.err"
  rc=$?
  set -e
  cat "$RUNNER_TEMP/solve.err"
  test "$rc" -eq 3
  grep -q '^NewtonDiverged: sigma 20' "$RUNNER_TEMP/solve.err"
}

charges() {
  out="$RUNNER_TEMP/charges.csv"
  log="$(PYTHONPATH=src python -W error::RuntimeWarning -m stcmc charges --data schwarzschild_graphical --mass 1 --u 1,0,0 \
    --radii log:100:10000:16 --out "$out")"
  echo "$log"
  test "$(tail -n +2 "$out" | grep -c .)" -eq 16
  # criterion 1's graphical tolerance
  python3 -c 'import re, sys; E = float(re.search(r"^E = (\S+)", sys.argv[1], re.M).group(1)); sys.exit(abs(E - 1.0) > 1e-2)' "$log"
}

# the log-periodic center cancellation: the metric center term diverges, its sum with Z converges (criterion 4's verdicts)
example_s9() {
  log="$(PYTHONPATH=src python -W error::RuntimeWarning -m stcmc example-s9)"
  echo "$log"
  grep -q '^metric-term divergent: True; sum divergent: False; ' <<< "$log"
}

# the only --config run end to end, and the only one that reads a perturbation's second order
perturbation() {
  cfg="$RUNNER_TEMP/perturbation.json"
  cat > "$cfg" <<'EOF'
{"kind": "custom_perturbation", "perturbation_terms": [
  {"i": 2, "j": 2, "coeff": 0.4, "decay": 1},
  {"i": 0, "j": 1, "coeff": 0.1, "decay": 1, "angular": [1, 0, 1]},
  {"target": "K", "i": 0, "j": 0, "coeff": 0.05, "decay": 2}]}
EOF
  log="$(PYTHONPATH=src python -W error::RuntimeWarning -m stcmc charges --config "$cfg" --radii 50,100,200,400)"
  echo "$log"
  # g_22 = 1 + 0.4/r has E = 0.4/6 on every sphere; the g_01 term is odd and adds nothing
  python3 -c 'import re, sys; E = float(re.search(r"^E = (\S+)", sys.argv[1], re.M).group(1)); sys.exit(abs(E - 0.4 / 6) > 1e-9)' "$log"
  log="$(PYTHONPATH=src python -W error::RuntimeWarning -m stcmc solve --config "$cfg" --sigma 30)"
  echo "$log"
  python3 -c 'import re, sys; m = re.search(r"converged in (\d+) iterations; residual sup (\S+)", sys.argv[1]); sys.exit(m is None or not (int(m.group(1)) <= 8 and float(m.group(2)) <= 1e-10))' "$log"
  # --config excludes --data, --mass and --u: exit 2 before any sphere is evaluated, so no table
  set +e
  PYTHONPATH=src python -W error::RuntimeWarning -m stcmc charges --config "$cfg" --mass 2 --radii 50,100,200,400 \
    > "$RUNNER_TEMP/config.out" 2> "$RUNNER_TEMP/config.err"
  rc=$?
  set -e
  cat "$RUNNER_TEMP/config.out" "$RUNNER_TEMP/config.err"
  test "$rc" -eq 2
  grep -q '^ConfigError' "$RUNNER_TEMP/config.err"
  test ! -s "$RUNNER_TEMP/config.out"
}

case "${1-}" in
  foliation | spectrum | solve | failure_contract | charges | example_s9 | perturbation) "$1" ;;
  *) echo "usage: bash ci/gates.sh foliation|spectrum|solve|failure_contract|charges|example_s9|perturbation" >&2; exit 2 ;;
esac
