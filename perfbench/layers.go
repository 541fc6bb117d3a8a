package main

// perLayer computes the traced half's per-layer metrics from its spans,
// cache counters, Go runtime counters and CPU profile. Comparing it with the
// untraced half gives the tracing overhead; the untraced half also supplies
// the ungated end-to-end figures.
func perLayer(p, plain *phase) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	r := p.res
	ops := float64(max(summarize(r.samples).ops, 1))
	window := float64(max(p.winEnd-p.winStart, 1))

	type opTimes struct {
		start, end   int64
		coord, cloud []interval
	}
	byOp := map[uint32]*opTimes{}
	get := func(id uint32) *opTimes {
		o := byOp[id]
		if o == nil {
			o = &opTimes{}
			byOp[id] = o
		}
		return o
	}

	var (
		coordCalls, coordLocks, coordLists, coordListRecs, coordConflicts int
		coordDur                                                          []float64
		smrCalls, smrOps                                                  int
		smrUp, smrDown                                                    int64
		smrDur                                                            []float64
		cloudCalls, cloudCancelled, cloudFailed                           int
		cloudByName                                                       [len(cloudNames)]int
		cloudUp, cloudDown, getNs                                         int64
		cloudDur                                                          []float64
		opSpans                                                           int
	)
	for _, s := range p.spans {
		switch s.kind {
		case kindOp:
			opSpans++
			o := get(s.op)
			o.start, o.end = s.start, s.end
		case kindCoord:
			coordCalls++
			coordDur = append(coordDur, nsToMs(s.dur()))
			switch s.name {
			case coordTryLock, coordUnlock:
				coordLocks++
			case coordList:
				coordLists++
				coordListRecs += int(s.n)
			}
			if s.out == outConflict {
				coordConflicts++
			}
			if s.op != 0 {
				o := get(s.op)
				o.coord = append(o.coord, interval{s.start, s.end})
			}
		case kindSMR:
			smrCalls++
			smrOps += int(s.n)
			smrUp += s.up
			smrDown += s.down
			smrDur = append(smrDur, nsToMs(s.dur()))
		case kindCloud:
			cloudCalls++
			cloudByName[s.name]++
			cloudUp += s.up
			cloudDown += s.down
			cloudDur = append(cloudDur, nsToMs(s.dur()))
			switch s.out {
			case outCancelled:
				cloudCancelled++
			case outFailed:
				cloudFailed++
			}
			if s.name == cloudGet {
				getNs += s.dur()
			}
			if s.op != 0 {
				o := get(s.op)
				o.cloud = append(o.cloud, interval{s.start, s.end})
			}
		}
	}

	var selfNs, coordWaitNs, cloudWaitNs int64
	for _, o := range byOp {
		if o.end == 0 {
			continue // an op that began before the measured window
		}
		coordWaitNs += unionLen(o.coord, o.start, o.end)
		cloudWaitNs += unionLen(o.cloud, o.start, o.end)
		both := append(append([]interval(nil), o.coord...), o.cloud...)
		selfNs += (o.end - o.start) - unionLen(both, o.start, o.end)
	}

	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	c := p.cache
	put("core.self_ms_per_op", "ms", nsToMs(selfNs)/ops)
	put("cache.mem_hit_ratio", "ratio", ratio(c.memHit, c.memHit+c.memMiss))
	put("cache.disk_hit_ratio", "ratio", ratio(c.diskHit, c.diskHit+c.diskMiss))
	put("cache.meta_hit_ratio", "ratio", ratio(c.metaHit, c.metaHit+c.metaMiss))

	put("coord.calls_per_op", "count", float64(coordCalls)/ops)
	put("coord.lock_calls_per_op", "count", float64(coordLocks)/ops)
	put("coord.list_calls_per_op", "count", float64(coordLists)/ops)
	put("coord.wait_ms_per_op", "ms", nsToMs(coordWaitNs)/ops)
	put("coord.call_p50_ms", "ms", median(coordDur))
	put("coord.conflicts_per_op", "count", float64(coordConflicts)/ops)
	put("coord.list_records_per_call", "count", ratio(int64(coordListRecs), int64(coordLists)))

	put("smr.invokes_per_op", "count", float64(smrCalls)/ops)
	put("smr.ops_per_invoke", "count", ratio(int64(smrOps), int64(smrCalls)))
	put("smr.invoke_p50_ms", "ms", median(smrDur))
	put("smr.request_bytes_per_invoke", "B", ratio(smrUp, int64(smrCalls)))
	put("smr.reply_bytes_per_invoke", "B", ratio(smrDown, int64(smrCalls)))

	put("cloud.req_per_op", "count", float64(cloudCalls)/ops)
	put("cloud.put_per_op", "count", float64(cloudByName[cloudPut])/ops)
	put("cloud.get_per_op", "count", float64(cloudByName[cloudGet])/ops)
	put("cloud.head_per_op", "count", float64(cloudByName[cloudHead])/ops)
	put("cloud.list_per_op", "count", float64(cloudByName[cloudList])/ops)
	put("cloud.delete_per_op", "count", float64(cloudByName[cloudDelete])/ops)
	put("cloud.bytes_up_per_op", "B", float64(cloudUp)/ops)
	put("cloud.bytes_down_per_op", "B", float64(cloudDown)/ops)
	put("cloud.wait_ms_per_op", "ms", nsToMs(cloudWaitNs)/ops)
	put("cloud.call_p50_ms", "ms", median(cloudDur))
	put("cloud.cancelled_ratio", "ratio", ratio(int64(cloudCancelled), int64(cloudCalls)))
	put("cloud.failed_ratio", "ratio", ratio(int64(cloudFailed), int64(cloudCalls)))
	put("cloud.get_inflight_mean", "count", float64(getNs)/window)

	cpuMs := ms(p.cpu)
	put("sim.self_ms_per_op", "ms", p.shares["cloudsim"]*cpuMs/ops)
	put("go.alloc_bytes_per_op", "B", float64(p.gc.allocBytes)/ops)
	put("go.allocs_per_op", "count", float64(p.gc.allocObjects)/ops)
	put("go.gc_cpu_fraction", "ratio", p.gc.gcCPU/max(p.gc.totalCPU, 1e-9))
	for _, mod := range cpuModules {
		put("cpu.share."+mod, "ratio", p.shares[mod])
	}

	put("error_ratio", "ratio", ratio(r.failed, r.attempted))
	plainUngated, tracedUngated := ungated(plain), ungated(p)
	for name, u := range plainUngated {
		put("untraced."+name, u.Unit, u.Value)
	}
	plainCPU, tracedCPU := endToEnd(plain)["cpu_ms_per_op"].Value, endToEnd(p)["cpu_ms_per_op"].Value
	put("trace.cpu_ms_per_op_ratio", "ratio", tracedCPU/max(plainCPU, 1e-9))
	put("trace.ops_per_s_ratio", "ratio", tracedUngated["ops_per_s"].Value/max(plainUngated["ops_per_s"].Value, 1e-9))
	put("trace.spans_per_op", "count", float64(len(p.spans))/ops)
	put("trace.op_spans", "count", float64(opSpans))
	put("trace.spans_dropped", "count", float64(p.dropped))
	return m
}

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }
