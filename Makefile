# Convenience targets; everything is plain `go` underneath.

.PHONY: all build fmt vet test race stress loc traffic mutants seams bench-gates fuzz-wire fuzz-wal fuzz-heap fuzz-index fuzz-part check check-nightly bench bench-figures bench-commit bench-evict bench-scan bench-pool bench-ledger bench-net bench-full examples cover

all: build fmt vet test

build:
	go build ./...

# Every .go file is gofmt-clean: gofmt -l lists the ones that are not.
fmt:
	@bad=$$(gofmt -l .); \
	if [ -n "$$bad" ]; then echo "fmt: not gofmt-clean (run gofmt -w):"; echo "$$bad"; exit 1; fi

vet:
	go vet ./...

test:
	go test ./...

race:
	go vet ./...
	go test -race ./...

# The packages whose TestMain runs leakcheck.Main, twenty times over: a
# goroutine that outlives its test only now and then, or a test that fails
# only in some interleavings, shows here before it shows in a PR. Nightly
# in CI, not per push: ~3 min on 2 cores.
stress:
	go test -count=20 ./internal/db/ ./internal/shard/ ./internal/server/ ./internal/buffer/ ./internal/index/mvpbt/

# The size ROADMAP tracks (aim 2, open item 5): non-test Go lines outside
# benchmarks/, and the test lines beside them.
loc:
	@echo "non-test: $$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmarks/*' | xargs cat | wc -l)"
	@echo "test:     $$(find . -name '*_test.go' -not -path './benchmarks/*' | xargs cat | wc -l)"

# Which functions under internal/ does no driver execute? Every binary the
# repository has — cmd/, the benchmark, the examples — is built with
# coverage instrumentation over the whole module and run the way it is run
# for real (traffic.sh lists the runs); a function that stays at 0.0 % must
# be named, with one of three reasons, in traffic.allow, or the target
# fails. Unit tests do not count: code only its own test calls is code
# nobody runs (ROADMAP aim 2). ~2 min.
traffic:
	sh traffic.sh

# Do the checks catch the bugs they are there for? Each entry of
# mutants.list plants one bug in a copy of the checkout and runs the check
# that must fail on it; a mutant that survives, does not compile or no longer
# applies fails the target. `make mutants M=<name>` runs one entry. Nightly
# in CI; every push runs the two visibility entries. ~70 s.
mutants:
	sh mutants.sh $(M)

# The folds stay folded (ROADMAP item 7), the way traffic keeps dead code
# out. A page is checked — stamped, verified, retried — by the buffer pool
# and nowhere around it: outside internal/buffer, the packages that define
# the three calls (internal/page, internal/storage) and internal/wal/log.go
# (the log's superblock and sector writes keep their own retry), no non-test
# file calls them. The names the folds deleted stay deleted. And every k-way
# merge is util.LoserTree: no non-test file under internal/ picks a merge's
# next source by hand (mvpbt's reference_test.go keeps its own, the oracle).
# And the settings that only one value ever took stay constants: none of the
# removed fields (supervisor, self-healing client, server, workloads) or
# mvpbt-server flags is back in a non-test file. And the hostile catalogue
# has one driver, the scenarios campaign: neither the exhaustion campaign
# (folded into snapshot-pin) nor the bench's copy of the matrix is back.
# And partitions pack their file's extents: no non-test file under
# internal/index/ takes a run with AllocRun, and sfile does not round a
# file's size up to an extent boundary. And the served path reads frames into
# the buffers its two ends keep: outside internal/server/wire and the
# benchmark's probe, no non-test file calls the allocating wire.ReadFrame.
# And a batch commits through CommitDurable, the one durable commit path.
# And a deployment reports itself once, as Router.Report over STATS: the
# inspector reads a running server and never builds a router of its own.
# And the storage stack has one checksum, page.CRC32C, over pages and log
# records alike: no non-test file under internal/ runs an FNV-1a loop (the
# bloom filter's and the zipfian scrambler's are hashes, not checksums), and
# only the helper's file calls hash/crc32. And TPC-C sets no MaxPartitions: its hot indexes
# merge by the garbage trigger, the default. And the verification arsenal
# keeps acked state once: the scenarios live in internal/check, and no
# non-test file there takes an FNV hash outside expect.go but saltSeed's
# (a seed, not a state). And no decoder of bytes lands unfuzzed: every
# non-test decode*/Decode* function over []byte under internal/ is named by
# a Fuzz* file of its package or by one decode-exempt line below, with the
# reason it needs no fuzzer. And the differential harness is a campaign like
# the others: cmd/mvpbt-check has no runDiff and none of its private flags.
# And the served stack has one campaign, chaos, whose kind=2pc runs the 2PC
# crash plan: neither the 2pc campaign, its cell and fingerprint, nor the
# harness's second generator config is back. And what only tests set stays
# out: a transaction carries no context (no BeginCtx, Tx.Context or ctxDone
# in any .go file), admission asks the router alone (no Overloaded probe), a
# fault rule scopes by file class alone (no MinLBA/MaxLBA), and mvpbt-bench
# has one machine-readable output, -json (no -csv, no Result.CSV). And
# what no binary observes stays out: the LSM builds a full memtable's run
# under its one lock (no frozen-memtable list, no FlushPending, no second
# mutex), and Engine.Close flushes the log and keeps no closer list. And
# MV-PBT evicts P_N under its write lock: no non-test file under
# internal/index/mvpbt keeps a frozen-P_N list (no frozen field or loop, no
# buildFrozen, no FrozenPNs). And MV-PBT reads a key in one order: neither
# k-way merge's Less compares a timestamp (a tie goes to the newer source, the
# order Tree.walk meets a key's records in), and no pnHoldsOlder or
# scanSource.ts is back; nor is a timestamp in pnKey or cmpPNKey: P_N lists a
# key's records in reverse write order, as every partition does. And the served stack keeps one of each: the
# server's lifecycle is tested by go test (no in-binary smoke suite, no
# "smoke" under cmd/mvpbt-server, no smoke-server target), QueueTimeout alone
# says whether a session waits (no reject/queue switch), and the restart
# backoff alone paces a failing shard's restarts (no circuit breaker). And a
# planted bug lives in mutants.list, behind no hook: no visibility-fault hook
# in MV-PBT and no FaultEvery in the harness. And recovery flushes once, by
# its closing checkpoint: no CommitDurable( or maybeAutoCheckpoint in
# internal/db/recovery.go.
# decode-exempt util.DecodeUint64: fixed width, 8 bytes; its callers (storage.DecodeRecordID, the heap's fuzzed decodeVersion) hand it a checked slice
# decode-exempt util.DecodeUint32: fixed width, 4 bytes; its one caller, chbench, passes it a 4-byte slice
# decode-exempt storage.DecodeRecordID: fixed width; the fuzzed decodeRecord (mvpbt) and decodeVersion (heap) check the length first
# decode-exempt index.DecodeRef: fixed width; every caller checks the length first: mvpbt's fuzzed decodeRecord, and the B-tree's and PBT's candidate scans, which return index.ErrShortRef
# decode-exempt workload/tpcc.DecodeWarehouse: a row the workload wrote, read back through the heap's fuzzed decodeVersion
# decode-exempt workload/tpcc.DecodeDistrict: a row the workload wrote, read back through the heap's fuzzed decodeVersion
# decode-exempt workload/tpcc.DecodeCustomer: a row the workload wrote, read back through the heap's fuzzed decodeVersion
# decode-exempt workload/tpcc.DecodeOrder: a row the workload wrote, read back through the heap's fuzzed decodeVersion
# decode-exempt workload/tpcc.DecodeNewOrder: a row the workload wrote, read back through the heap's fuzzed decodeVersion
# decode-exempt workload/tpcc.DecodeOrderLine: a row the workload wrote, read back through the heap's fuzzed decodeVersion
# decode-exempt workload/tpcc.DecodeItem: a row the workload wrote, read back through the heap's fuzzed decodeVersion
# decode-exempt workload/tpcc.DecodeStock: a row the workload wrote, read back through the heap's fuzzed decodeVersion
seams:
	@bad=$$(grep -rnE 'storage\.Retry\(|page\.(Stamp|Verify)Checksum\(' --include='*.go' . \
		| grep -vE '_test\.go:|^\./internal/(buffer|page|storage)/|^\./internal/wal/log\.go:'); \
	if [ -n "$$bad" ]; then echo "seams: checked page I/O outside internal/buffer:"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -rnE 'RecoverAll|NoteRead|ReadRun\(|DumpEntry' --include='*.go' .); \
	if [ -n "$$bad" ]; then echo "seams: a folded name is back:"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -rnE 'best := -1|var best \*' --include='*.go' internal | grep -v '_test\.go:'); \
	if [ -n "$$bad" ]; then echo "seams: a k-way merge outside util.LoserTree:"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -rnE '\b(FaultThreshold|RestartBackoff|MaxBackoff|BreakerThreshold|MaxAttempts|BaseBackoff|DialTimeout|RetryWrites|WriteTimeout|DrainGrace|CommitTokenTTL|Districts|MaxScanLen)\b([^(]|$$)|"(group-commit|supervise)"' --include='*.go' . \
		| grep -vE '_test\.go:|^[^:]+:[0-9]+:\s*//'); \
	if [ -n "$$bad" ]; then echo "seams: a removed setting is back (it is a constant):"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -rnE 'exhaustCampaign|ExhaustFingerprint|runScenarioMatrix' --include='*.go' .; grep -nE '^bench-scenario[s]:' Makefile); \
	if [ -n "$$bad" ]; then echo "seams: a second driver of the hostile catalogue is back:"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -rn 'AllocRun(' --include='*.go' internal/index | grep -v '_test\.go:'; grep -nE 'nPages ?(%|\+=|\+ ?ExtentPages)' internal/sfile/sfile.go); \
	if [ -n "$$bad" ]; then echo "seams: partition runs are extent-aligned again:"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -rn 'wire\.ReadFrame(' --include='*.go' . | grep -vE '_test\.go:|^\./(internal/server/wire|benchmarks)/'); \
	if [ -n "$$bad" ]; then echo "seams: a served path reads frames into fresh buffers (use wire.ReadFrameInto):"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -rnwE 'groupCommitter|commitWaiter|runLeader|maxCommitBatch|MaxBatched' --include='*.go' . | grep -v '_test\.go:'); \
	if [ -n "$$bad" ]; then echo "seams: the commit batcher is back (a commit flushes the log through its own record):"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -rnwE 'CommitBatchDurable' --include='*.go' . | grep -v '_test\.go:'); \
	if [ -n "$$bad" ]; then echo "seams: a second durable commit path is back (CommitDurable takes the batch):"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -rnE 'inspectShards|func \(r \*Router\) Degraded' --include='*.go' .; grep -rn 'shard\.New(' --include='*.go' cmd/mvpbt-inspect); \
	if [ -n "$$bad" ]; then echo "seams: a second dumper of a deployment is back (STATS returns Router.Report; mvpbt-inspect -addr reads it):"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -rnwE 'ZNSCounters|CloudCounters|ResetFaultCounters|FlushesPerCommit|DeviceBytesPerLogByte' --include='*.go' . | grep -v '_test\.go:'; \
		grep -rn 'FaultCounters()' --include='*.go' . | grep -v '_test\.go:'); \
	if [ -n "$$bad" ]; then echo "seams: a second counter snapshot is back (ssd.Stats holds every device counter):"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -nE '(transition\(|Store\(|CompareAndSwap\().*Degraded' internal/shard/supervisor.go); \
	if [ -n "$$bad" ]; then echo "seams: the supervisor stores Degraded again (Health reads it from the engine):"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -rnE 'SpaceInfo\(|WALStatsSnapshot\(|IOStats\(|Printf\(.*\.(Space|WAL|Pool|Device)\.' --include='*.go' cmd/mvpbt-inspect | grep -v '_test\.go:'); \
	if [ -n "$$bad" ]; then echo "seams: the inspector formats counters by hand again (print ShardStats.Fill's report):"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -rnE '1099511628211|0x100000001b3|16777619|0x1000193' --include='*.go' internal | grep -vE '_test\.go:|^internal/bloom/bloom\.go:|^internal/util/rand\.go:'; \
		grep -rn 'crc32\.' --include='*.go' internal | grep -vE '_test\.go:|^internal/page/page\.go:'); \
	if [ -n "$$bad" ]; then echo "seams: a second checksum is back (page.CRC32C checksums pages and log records):"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -rnw 'MaxPartitions' --include='*.go' internal/workload/tpcc | grep -v '_test\.go:'); \
	if [ -n "$$bad" ]; then echo "seams: TPC-C sets MaxPartitions (its hot indexes merge by the garbage trigger):"; echo "$$bad"; exit 1; fi
	@bad=$$(ls -d internal/workload/hostile 2>/dev/null; grep -rn 'internal/workload/hostile"' --include='*.go' .; \
		awk '/^func /{fn=$$0} /fnv\./ && fn !~ /^func saltSeed\(/ {print FILENAME ":" FNR ": " $$0}' \
			$$(ls internal/check/*.go | grep -vE '_test\.go$$|/expect\.go$$')); \
	if [ -n "$$bad" ]; then echo "seams: acked state has a second home (scenarios live in internal/check; expect.go hashes the state):"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -rnE '^func( \([^)]*\))? [dD]ecode[A-Za-z0-9_]*\([^)]*\[\]byte' --include='*.go' internal | grep -v '_test\.go:' \
		| while IFS=: read -r f _ sig; do \
			d=$${f%/*}; n=$$(echo "$$sig" | sed -E 's/^func( \([^)]*\))? ([A-Za-z0-9_]+)\(.*/\2/'); \
			grep -qw "$$n" $$(grep -l '^func Fuzz' $$d/*_test.go 2>/dev/null) /dev/null 2>/dev/null && continue; \
			grep -qE "^# decode-exempt $${d#internal/}\.$$n: .+" Makefile && continue; \
			echo "$$f: $$n"; \
		done); \
	if [ -n "$$bad" ]; then echo "seams: a decoder of bytes no Fuzz* file names (add a fuzz target, or a '# decode-exempt <pkg>.<name>: <reason>' line):"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -rnE 'runDiff|inject-fault|no-shrink|audit-every' cmd/mvpbt-check); \
	if [ -n "$$bad" ]; then echo "seams: mvpbt-check has a second runner again (diff is a campaign on the runner):"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -rnwE 'twoPCCampaign|twoPCCell|TwoPCFingerprint|GenConfig' --include='*.go' . | grep -v '_test\.go:'; \
		grep -nE '^var Campaigns = .*(twoPC|"2pc")' internal/check/campaign.go; \
		grep -rnE 'Name: *"2pc"' --include='*.go' internal/check | grep -v '_test\.go:'); \
	if [ -n "$$bad" ]; then echo "seams: a second served campaign is back (the 2PC crash plan is chaos -kinds 2pc; Generate takes a RunConfig):"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -rnE 'BeginCtx|ctxDone|Tx\) Context\(|\bOverloaded\b|\b(MinLBA|MaxLBA)\b' --include='*.go' .; \
		grep -rnE '"csv"|-csv\b|CSV\(\)' --include='*.go' cmd/mvpbt-bench internal/bench); \
	if [ -n "$$bad" ]; then echo "seams: a setting only tests set is back (transaction context, fake overload probe, LBA-range faults, CSV output):"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -rnwE 'PendingMemtables|FlushPending|freezeLocked|compactMu|AddCloser' --include='*.go' . | grep -v '_test\.go:'); \
	if [ -n "$$bad" ]; then echo "seams: a mechanism no binary observes is back (the LSM flushes under its one lock; Engine.Close keeps no closer list):"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -rnwE 'FrozenPNs|buildFrozen|frozen' --include='*.go' internal/index/mvpbt | grep -vE '_test\.go:|^[^:]+:[0-9]+:\s*//'); \
	if [ -n "$$bad" ]; then echo "seams: the frozen-P_N list is back (EvictPN builds P_N under bgMu and mu):"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -rnE 'pnHoldsOlder|func \(s \*scanSource\) ts\(' --include='*.go' internal/index/mvpbt | grep -v '_test\.go:'; \
		awk '/^func \(s (scanMerge|mergeSources)\) Less\(/ {f=1} f {print FILENAME ":" FNR ": " $$0} f && (/^}/ || /\{.*}$$/) {f=0}' \
			$$(ls internal/index/mvpbt/*.go | grep -v '_test\.go$$') | grep -E '\.TS\b|\.ts\('); \
	if [ -n "$$bad" ]; then echo "seams: MV-PBT orders a key's records by timestamp across sources again (a tie goes to the newer source):"; echo "$$bad"; exit 1; fi
	@bad=$$(awk '/^type pnKey struct|^func cmpPNKey\(/ {f=1} f {print FILENAME ":" FNR ": " $$0} f && /^}/ {f=0}' internal/index/mvpbt/mvpbt.go | grep -iE '\bts\b|TxID'); \
	if [ -n "$$bad" ]; then echo "seams: P_N orders a key's records by timestamp again (pnKey is {key, seq}: write order):"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -rnwE 'runSmoke|AdmissionPolicy|AdmitQueue|AdmitReject|breakerOpen|BreakerOpen|breakerThreshold' --include='*.go' . | grep -v '_test\.go:'; \
		grep -rn '"smoke"' --include='*.go' cmd/mvpbt-server; grep -nE '^smoke-server:' Makefile); \
	if [ -n "$$bad" ]; then echo "seams: a second copy in the served stack is back (the server's smoke suite, the reject/queue switch, the restart breaker):"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -rnwE 'VisFaultFn|SetVisibilityFaultForTest|applyVisFault|FaultEvery' --include='*.go' . | grep -v '_test\.go:'); \
	if [ -n "$$bad" ]; then echo "seams: a bug-planting hook is back (planted bugs live in mutants.list):"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -nE 'CommitDurable\(|maybeAutoCheckpoint' internal/db/recovery.go); \
	if [ -n "$$bad" ]; then echo "seams: recovery flushes per transaction again (it commits in memory; its closing checkpoint is its one write):"; echo "$$bad"; exit 1; fi
	@echo "seams: ok"

# Gates that compare wall-clock measurements between two runs: the net
# experiment's shard speedup and admission p99. They need a quiet box and
# fail deterministically under -race, so `go test ./...` skips them; the
# count gate of the same experiment stays in tier-1.
bench-gates:
	go test ./internal/bench/ -run 'WallClockGates' -count 1 -bench-gates

# Ten-second fuzz smokes over the wire decoders — the first code that
# touches untrusted network bytes: the frame decoder on both sides, fresh and
# through one reused buffer, the Scan reply's pair decoder on the client's.
# The full fuzzer runs with -fuzztime raised; crashers land in
# internal/server/wire/testdata/fuzz/.
fuzz-wire:
	go test -fuzz='^FuzzReadFrame$$' -fuzztime=10s ./internal/server/wire/
	go test -fuzz='^FuzzReadFrameInto$$' -fuzztime=10s ./internal/server/wire/
	go test -fuzz=FuzzTakePairs -fuzztime=10s ./internal/server/wire/

# The same for the two decoders that read log bytes off a device: WAL
# records (every op, incl. prepare/decide/forget) and the wal.Log
# superblock; and for Engine.Recover, which replays a whole log image.
# Crashers land in internal/{wal,db}/testdata/fuzz/.
fuzz-wal:
	go test -fuzz=FuzzDecodeRecord -fuzztime=10s ./internal/wal/
	go test -fuzz=FuzzSuperblock -fuzztime=10s ./internal/wal/
	go test -fuzz=FuzzRecover -fuzztime=10s ./internal/db/

# And for the heap's version-record decoder, which reads slots of pages
# whose checksum held: a short or empty slot must be ErrCorruptPage, not a
# panic. Crashers land in internal/heap/testdata/fuzz/.
fuzz-heap:
	go test -fuzz=FuzzDecodeVersion -fuzztime=10s ./internal/heap/

# And for the two baseline indexes' decoders, which read records of pages
# whose checksum held: the B-tree's leaf and internal node records and the
# LSM tree's entry bodies. A short record must be ErrCorruptPage, not a
# panic. Crashers land in internal/index/{btree,lsm}/testdata/fuzz/.
fuzz-index:
	go test -fuzz=FuzzBTreeRecord -fuzztime=10s ./internal/index/btree/
	go test -fuzz=FuzzLSMBody -fuzztime=10s ./internal/index/lsm/

# And for the partition layer's decoders of device bytes: the slotted page's
# slot directory under Get, Live and LiveCount; the leaf cursor
# behind part.Iterator and part.Reader, which reads pages where they lie, and
# the MV-PBT record body inside a leaf; plus the fence search, which must
# pick the leaf the linear rule picks, enter the one leaf holding the first
# record at or above the probe and seek to that record, and the prefix filter, which must never skip a range that
# holds a key; plus the loser tree every k-way merge runs on, which must emit
# what a stable sort by (key, source) does. Crashers land in
# internal/{page,index/part,index/mvpbt,util}/testdata/fuzz/.
fuzz-part:
	go test -fuzz=FuzzPageSlots -fuzztime=10s ./internal/page/
	go test -fuzz=FuzzLeafCursor -fuzztime=10s ./internal/index/part/
	go test -fuzz=FuzzFenceSearch -fuzztime=10s ./internal/index/part/
	go test -fuzz=FuzzPrefixFilter -fuzztime=10s ./internal/index/part/
	go test -fuzz=FuzzDecodeRecord -fuzztime=10s ./internal/index/mvpbt/
	go test -fuzz=FuzzLoserTree -fuzztime=10s ./internal/util/

# The differential harness campaign: short smoke (CI) and nightly-length,
# the latter with the hot-key sweep (16 keys, 8 clients, 30 seeds; ~30 s):
# long-running writers of a few keys, where a blind write lands after a
# newer transaction's write of its key. CI runs 3 seeds of the sweep after
# `make check` on every push (`go run ./cmd/mvpbt-check diff -keys 16
# -clients 8 -seeds 3`, ~3 s).
check:
	go run ./cmd/mvpbt-check diff

check-nightly:
	go run ./cmd/mvpbt-check diff -ops 50000 -crashes 3
	go run ./cmd/mvpbt-check diff -keys 16 -clients 8 -seeds 30

# The seeded verification campaigns, one mvpbt-check subcommand each
# (DESIGN.md §8 says what each holds): check-faults, check-scenarios,
# check-chaos, check-diff, and check-all for the four back to back. Every
# cell is run twice and must replay
# byte-identically; a failing cell prints the command that reruns it alone.
check-%:
	go run ./cmd/mvpbt-check $*

# Every experiment under testing.B (BenchmarkExperiment/<id>, quick scale,
# reporting the headline metrics the experiment declares).
bench:
	go test -bench=. -benchmem

# All eighteen experiments at quick scale (~12 s) as one JSON document: every
# cell's value, precision and count-or-clock kind, and the headline metrics
# with units. CI publishes it; a PR that may move a figure commits it as
# FIGURES_<pr>.json so the next can diff count cells exactly.
bench-figures:
	go run ./cmd/mvpbt-bench -all -json > bench-figures.json

# Commit-pipeline benchmarks: the group-commit experiment table, the
# hot-path alloc benchmarks (BenchmarkAllocKV* for the KV path,
# BenchmarkAllocTable* for db.Table's row operations, the path htap runs),
# the log's own flush benchmark (device bytes and virtual time per flush),
# and the three regression gates (TestHotPathAllocGate on allocs/op, KV and
# table path and a partition build; TestSeekFetchGate on the leaves a
# partition seek fetches: one for a present key, none for a range between
# two leaves; TestFlushCostGate on the flush's device cost; each fails the
# build). Output lands in bench-commit.txt for publishing as a build artifact.
bench-commit:
	go test ./internal/bench/ -run 'TestHotPathAllocGate|TestSeekFetchGate' -count 1
	go test ./internal/wal/ -run TestFlushCostGate -count 1
	go test -bench 'BenchmarkExperiment/commit$$' -benchtime 1x -run xxx . | tee bench-commit.txt
	go test -bench BenchmarkAlloc -benchmem -benchtime 2000x -run xxx ./internal/bench/ | tee -a bench-commit.txt
	go test -bench BenchmarkWriterFlush -benchmem -benchtime 2000x -run xxx ./internal/wal/ | tee -a bench-commit.txt

# Partition benchmarks, a layer measured without the stack above it: the
# bounded-memory gate (TestBoundedMemoryGate: an eviction and a 10-way merge
# hold one page, one key's records and an extent per input, not the
# partition; it fails the build), then the segment builder, one P_N eviction
# and one 10-way merge with -benchmem and their device cost (dev-writes/op,
# dev-reads/op, virtual-ms/op; counts, so they repeat), and a reused
# iterator's Seek into a resident segment and through a pool a third its size,
# for 100-byte bodies and for the TPC-C index shape (~180 records a leaf, the
# leaves whose restart slots a seek binary-searches).
# Output lands in bench-evict.txt for publishing as a build artifact.
bench-evict:
	go test ./internal/index/mvpbt/ -run TestBoundedMemoryGate -count 1
	go test -bench BenchmarkBuilder -benchmem -benchtime 200x -run xxx ./internal/index/part/ | tee bench-evict.txt
	go test -bench BenchmarkSegmentSeek -benchmem -benchtime 20000x -run xxx ./internal/index/part/ | tee -a bench-evict.txt
	go test -bench 'BenchmarkEvictPN|BenchmarkMergePartitions' -benchmem -benchtime 50x -run xxx ./internal/index/mvpbt/ | tee -a bench-evict.txt

# Range scans, the tree on its own: the read-ahead gates (TestScanReadAhead*:
# a cold SCAN(50) over 1 KiB values takes its leaves in runs — device reads
# per partition, pages read beyond those used, none when resident, fallback
# and typed errors under device faults; they fail the build) and the pool's
# GetRun tests, then BenchmarkScanLimit — SCAN(50) against one partition
# through a pool an eighth of the leaves and resident — and
# BenchmarkScanOrderLine — one order's lines over 50 partitions that each
# hold every district, through a pool a quarter of their pages and resident
# — with -benchmem and their device cost (dev-reads/op, virtual-us/op,
# partitions/op entered past the prefix filter; counts, so they repeat).
# Output lands in bench-scan.txt for publishing as a build artifact.
bench-scan:
	go test ./internal/index/mvpbt/ -run TestScanReadAhead -count 1
	go test ./internal/buffer/ -run TestGetRun -count 1
	go test -bench 'BenchmarkScanLimit|BenchmarkScanSweep|BenchmarkScanOrderLine' -benchmem -benchtime 20000x -run xxx ./internal/index/mvpbt/ | tee bench-scan.txt

# The buffer pool's replacement policy on its own: the policy tests
# (TestPolicy*: what a hit buys, the dirty pass, a victim with every frame at
# the cap, the domain sizes, the skewed trace against the parent's counts;
# they fail the build) and the sealed-page gate (TestSiasTablesAppendInRuns:
# five SIAS tables appending at once reach the device at least 0.7
# sequential, each sealed tail written before an extent's worth of further
# seals; it fails the build), then BenchmarkPoolTrace — scrambled-zipfian
# fetches over four times a 512-frame pool, dirtying either a twentieth of the pages
# or any page on a twentieth of the fetches — with its device cost
# (dev-reads/op, write-backs/op; counts, so they repeat). Output lands in
# bench-pool.txt for publishing as a build artifact.
bench-pool:
	go test ./internal/buffer/ -run TestPolicy -count 1
	go test ./internal/heap/ -run TestSiasTablesAppendInRuns -count 1
	go test -bench BenchmarkPoolTrace -benchtime 200000x -run xxx ./internal/buffer/ | tee bench-pool.txt

# The repository benchmark's own smoke test (benchmarks/: every workload at
# a fraction of its scale, every declared metric present, outputs checked).
# The numbers themselves come from `sh benchmarks/run.sh`; each PR that claims
# or risks a performance change commits its `-all -seed 1` document as
# BENCH_<pr>.json.
bench-ledger:
	go test ./benchmarks

# Sharded network front-end experiment: clients x shards scaling curve and
# p99 under overload with admission control on/off, into bench-net.txt (a
# local convenience; CI publishes bench-figures.json).
bench-net:
	go run ./cmd/mvpbt-bench -run net | tee bench-net.txt

# Regenerate every figure at full scale (minutes).
bench-full:
	go run ./cmd/mvpbt-bench -all -scale full

examples:
	go run ./examples/quickstart
	go run ./examples/htap
	go run ./examples/ycsb
	go run ./examples/tpcc
	go run ./examples/durability

cover:
	go test -cover ./...
