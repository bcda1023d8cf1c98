package bench

import (
	"mvpbt/internal/db"
	"mvpbt/internal/index/mvpbt"
	"mvpbt/internal/workload/tpcc"
)

func runFig13(s Scale) (*Result, error) {
	eng := db.NewEngine(engineConfig(s.pick(256, 1024), 48<<10))
	b, err := tpcc.New(eng, tpcc.Config{
		Warehouses: 1, CustomersPerDistrict: s.pick(60, 300), Items: s.pick(300, 2000),
		Heap: db.HeapSIAS, Index: db.IdxMVPBT, BloomBits: 10, PrefixLen: 12,
	})
	if err != nil {
		return nil, err
	}
	if err := b.Load(); err != nil {
		return nil, err
	}
	if err := b.Run(s.pick(3000, 15000)); err != nil {
		return nil, err
	}

	var bloom, prefix mvpbt.FilterStats
	var nParts int
	var partBytes, bloomBytes, prefixBytes int64
	for _, t := range b.AllTables() {
		for _, ix := range t.Indexes() {
			mv := ix.MV()
			if mv == nil {
				continue
			}
			st := mv.Stats()
			bloom.Negatives += st.Bloom.Negatives
			bloom.Positives += st.Bloom.Positives
			bloom.FalsePositives += st.Bloom.FalsePositives
			prefix.Negatives += st.Prefix.Negatives
			prefix.Positives += st.Prefix.Positives
			prefix.FalsePositives += st.Prefix.FalsePositives
			for _, p := range mv.Partitions() {
				nParts++
				partBytes += int64(p.SizeBytes)
				if p.Filter != nil {
					bloomBytes += int64(p.Filter.SizeBytes())
				}
				if p.PFilter != nil {
					prefixBytes += int64(p.PFilter.SizeBytes())
				}
			}
		}
	}

	res := &Result{
		ID:     "fig13",
		Title:  "Partition filter effectiveness and size",
		Header: []string{"filter", "negatives%", "positives%", "false-pos%", "consults"},
	}
	pct := func(part, total int64) Cell {
		return count(100*float64(part)/float64(max64(total, 1)), 1)
	}
	bt := bloom.Negatives + bloom.Positives + bloom.FalsePositives
	pt := prefix.Negatives + prefix.Positives + prefix.FalsePositives
	res.Add(label("bloom"), pct(bloom.Negatives, bt), pct(bloom.Positives, bt), pct(bloom.FalsePositives, bt), count(bt, 0))
	res.Add(label("prefix-bloom"), pct(prefix.Negatives, pt), pct(prefix.Positives, pt), pct(prefix.FalsePositives, pt), count(pt, 0))
	res.Headline("bloom_negatives_pct", "%", must(res.Val("bloom", "negatives%")))
	res.Headline("bloom_falsepos_pct", "%", must(res.Val("bloom", "false-pos%")))
	if nParts > 0 {
		res.Note("avg partition %.2f KB; avg bloom %.2f KB (%.1f%% of partition); avg prefix-bloom %.2f KB",
			float64(partBytes)/float64(nParts)/1024,
			float64(bloomBytes)/float64(nParts)/1024,
			100*float64(bloomBytes)/float64(max64(partBytes, 1)),
			float64(prefixBytes)/float64(nParts)/1024)
	}
	res.Note("paper: bloom 81.8%% negatives / 0.6%% false positives; prefix-bloom 84.5%% / 10.6%%; sizes 0.57 MB and 0.36 MB per 24 MB partition")
	return res, nil
}
