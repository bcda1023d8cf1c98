package check

// Shrink greedily minimizes a failing history: replay candidates with an
// audit after EVERY op (so failures reproduce independently of the
// original audit cadence), truncate to the failing prefix, then
// delta-debug — remove chunks of halving size as long as the result still
// fails. Op semantics are closed under subsetting (every op is a no-op
// when its precondition is absent), so any subsequence is a valid
// history. The budget caps total replays; 0 picks a default.
func Shrink(cfg RunConfig, ops []Op, budget int) []Op {
	if budget <= 0 {
		budget = 400
	}
	sc := cfg
	sc.StepAudit = true
	attempts := 0
	// fails replays cand and, when it fails, returns it truncated to the
	// failing prefix (dropping everything after the violation for free).
	fails := func(cand []Op) ([]Op, bool) {
		if attempts >= budget {
			return cand, false
		}
		attempts++
		r := Replay(sc, cand)
		if r.Violation == nil {
			return cand, false
		}
		if n := r.Violation.Step + 1; n < len(cand) {
			cand = cand[:n]
		}
		return cand, true
	}
	cur, ok := fails(ops)
	if !ok {
		// Not reproducible under step-audit cadence; retry with the
		// original one before giving up.
		sc.StepAudit = cfg.StepAudit
		if cur, ok = fails(ops); !ok {
			return ops
		}
	}
	for chunk := (len(cur) + 1) / 2; chunk >= 1; {
		removed := false
		for start := 0; start < len(cur) && len(cur) > 1; {
			end := start + chunk
			if end > len(cur) {
				end = len(cur)
			}
			cand := make([]Op, 0, len(cur)-(end-start))
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[end:]...)
			if len(cand) == 0 {
				break
			}
			if shrunk, ok := fails(cand); ok {
				cur = shrunk
				removed = true
			} else {
				start += chunk
			}
		}
		if chunk > 1 {
			chunk = (chunk + 1) / 2
		} else if !removed {
			break
		}
	}
	return cur
}
