package main

import (
	"hybrid/internal/bufpool"
	"hybrid/internal/tcp"
)

// counts are the layers' work counters, read from their public metrics
// and snapshots. The difference of two readings covers one timed phase.
type counts map[string]uint64

func readCounts(w *world) counts {
	sched := w.rt.Stats().Snapshot()
	ks := w.k.Snapshot()
	hits, misses, _ := w.srv.Cache().Stats()
	ds := w.fs.Disk().Snapshot()
	c := counts{
		"dispatches":      uint64(sched.Counter("dispatches")),
		"parks":           uint64(sched.Counter("parks")),
		"spawns":          w.rt.Spawned(),
		"syscalls":        ks.Reads + ks.Writes + ks.EpollWaits,
		"eagains":         ks.EAGAINs,
		"wakeups":         ks.Wakeups,
		"copied":          ks.BytesRead + ks.BytesWrote,
		"seg_gets":        bufpool.SegGets(), // process-wide
		"seg_misses":      bufpool.SegMisses(),
		"cache_hits":      hits,
		"cache_misses":    misses,
		"disk_requests":   ds.Requests,
		"disk_queue":      ds.TotalQueue,
		"disk_dispatches": ds.Dispatches,
		"seek_blocks":     ds.SeekBlocks,
	}
	if w.net != nil {
		for _, s := range []*tcp.Stack{w.server, w.client} {
			ss := s.Snapshot()
			c["segs_out"] += ss.SegsOut
			c["rexmits"] += ss.Retransmits + ss.FastRetransmits + ss.RecoveryRexmits
			c["rtos"] += ss.RTOExpiries
		}
		c["sent"], _, c["dropped"], _ = w.net.Stats()
	}
	return c
}

func (c counts) since(base counts) counts {
	d := counts{}
	for k, v := range c {
		d[k] = v - base[k]
	}
	return d
}

func (c counts) add(d counts) {
	for k, v := range d {
		c[k] += v
	}
}

// perRequest turns counts into the per-layer count metrics. A ratio
// whose base is zero (the layer did not run) reads 0.
func (c counts) perRequest(requests uint64) map[string]metric {
	per := func(k string) float64 { return ratio(c[k], requests) }
	return map[string]metric{
		"core.dispatches_per_req":     {per("dispatches"), "count"},
		"core.parks_per_req":          {per("parks"), "count"},
		"core.spawns_per_req":         {per("spawns"), "count"},
		"kernel.syscalls_per_req":     {per("syscalls"), "count"},
		"kernel.eagains_per_req":      {per("eagains"), "count"},
		"kernel.wakeups_per_req":      {per("wakeups"), "count"},
		"kernel.bytes_copied_per_req": {per("copied"), "B"},
		"bufpool.seg_gets_per_req":    {per("seg_gets"), "count"},
		"bufpool.seg_miss_ratio":      {ratio(c["seg_misses"], c["seg_gets"]), "ratio"},
		"httpd.cache_hit_ratio":       {ratio(c["cache_hits"], c["cache_hits"]+c["cache_misses"]), "ratio"},
		"disk.requests_per_req":       {per("disk_requests"), "count"},
		"disk.mean_queue":             {ratio(c["disk_queue"], c["disk_dispatches"]), "count"},
		"disk.seek_blocks_per_req":    {per("seek_blocks"), "count"},
		"tcp.segs_per_req":            {per("segs_out"), "count"},
		"tcp.retransmit_ratio":        {ratio(c["rexmits"], c["segs_out"]), "ratio"},
		"tcp.rto_expiries_per_kreq":   {1000 * per("rtos"), "count"},
		"netsim.drop_ratio":           {ratio(c["dropped"], c["sent"]), "ratio"},
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
