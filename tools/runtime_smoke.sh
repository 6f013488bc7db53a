#!/bin/sh
# A tiny simulate -> sparse train -> calibrate -> lodo pipeline, the lodo
# running both calib-* methods, through one fedva executable:
#
#     sh tools/runtime_smoke.sh FEDVA WORK_DIR
#
# FEDVA is the path of a `fedva` console script (or of any executable that
# takes fedva's arguments); WORK_DIR is created and receives every input and
# output. Exits non-zero as soon as a command fails or an output is missing.
set -eu
fedva=$1
mkdir -p "$2"
cd "$2"

cat > sim.yaml <<'EOF'
paths: {out: sim}
generator: {C: 3, K: 1, p: 6, M: 2, n_domain: 60, n_target: 30, seed: 5}
EOF
cat > run.yaml <<'EOF'
paths:
  cause_list: sim/cause_list.txt
  symptom_dict: sim/symptom_dict.txt
  datasets: {domain_1: sim/domain_1.csv, domain_2: sim/domain_2.csv, target: sim/target.csv}
  summaries: out/summaries
  out: out
target: target
base_model: {K: 2, sparse: true}
gibbs: {iterations: 20, burn_in: 10, seed: 3}
ensemble: {chains: 1, iterations: 20, burn_in: 10, seed: 4}
calibration: {iterations: 20, burn_in: 10, seed: 5}
methods: [calib-0.5, calib-50]
seeds: [0]
workers: 1
EOF

"$fedva" simulate --config sim.yaml
"$fedva" train --config run.yaml --domain domain_1
"$fedva" train --config run.yaml --domain domain_2
"$fedva" calibrate --config run.yaml
"$fedva" lodo --config run.yaml
test -s out/summaries/domain_1.summary.json
test -s out/calibration.txt
test -s out/lodo_results.csv
echo "runtime smoke: every command exited 0"
