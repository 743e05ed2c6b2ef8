package main

// The metric names and units BENCHMARK.json lists. Every run reports every
// name of its kind; README.md says what each means on each workload.

var endToEnd = []string{
	"setup_s",
	"frames_per_s",
	"frame_p50_ms",
	"frame_p99_ms",
	"cpu_ms_per_frame",
	"cpu_s_per_sim_s",
	"sim_s_per_s",
	"peak_rss_mb",
}

var perLayer = []string{
	// All workloads.
	"failed_frac",
	"trace_overhead_frac",
	"go.gc_cpu_frac",
	// repro.
	"mac.run.busy_s",
	"mac.run.calls",
	"mac.us_per_zigbee_frame",
	"mac.run.point_p99_s",
	"exp.profile.busy_s",
	"exp.profile.calls",
	"repro.fanout_idle_frac",
	"repro.unattributed_us_per_point",
	"mac.zigbee_frames",
	"mac.wifi_frames",
	"mac.zigbee_delivered_frac",
	// rx.
	"wifi.rx.us_per_frame",
	"wifi.rx.us_per_symbol",
	"core.decode.us_per_frame",
	"wifi.evm.us_per_frame",
	"facade.decode.unattributed_us_per_frame",
	"facade.decode.allocs_per_frame",
	"facade.decode.bytes_per_frame",
	"rx.symbols",
	"rx.decode_failures",
	// tx.
	"engine.deliver_us_p50",
	"engine.deliver_us_p99",
	"core.encode.us_per_frame",
	"engine.wait_us_per_frame",
	"engine.shed",
	"engine.failed",
	"wifi.tx.us_per_frame",
	"wifi.tx.us_per_symbol",
	"facade.encode.allocs_per_frame",
	"facade.encode.bytes_per_frame",
	"tx.unattributed_us_per_frame",
	"tx.symbols",
}

var units = map[string]string{
	"setup_s":          "s",
	"frames_per_s":     "1/s",
	"frame_p50_ms":     "ms",
	"frame_p99_ms":     "ms",
	"cpu_ms_per_frame": "ms",
	"cpu_s_per_sim_s":  "s/s",
	"sim_s_per_s":      "s/s",
	"peak_rss_mb":      "MB",

	"failed_frac":         "fraction",
	"trace_overhead_frac": "fraction",
	"go.gc_cpu_frac":      "fraction",

	"mac.run.busy_s":                  "s",
	"mac.run.calls":                   "count",
	"mac.us_per_zigbee_frame":         "us",
	"mac.run.point_p99_s":             "s",
	"exp.profile.busy_s":              "s",
	"exp.profile.calls":               "count",
	"repro.fanout_idle_frac":          "fraction",
	"repro.unattributed_us_per_point": "us",
	"mac.zigbee_frames":               "count",
	"mac.wifi_frames":                 "count",
	"mac.zigbee_delivered_frac":       "fraction",

	"wifi.rx.us_per_frame":                    "us",
	"wifi.rx.us_per_symbol":                   "us",
	"core.decode.us_per_frame":                "us",
	"wifi.evm.us_per_frame":                   "us",
	"facade.decode.unattributed_us_per_frame": "us",
	"facade.decode.allocs_per_frame":          "count",
	"facade.decode.bytes_per_frame":           "B",
	"rx.symbols":                              "count",
	"rx.decode_failures":                      "count",

	"engine.deliver_us_p50":          "us",
	"engine.deliver_us_p99":          "us",
	"core.encode.us_per_frame":       "us",
	"engine.wait_us_per_frame":       "us",
	"engine.shed":                    "count",
	"engine.failed":                  "count",
	"wifi.tx.us_per_frame":           "us",
	"wifi.tx.us_per_symbol":          "us",
	"facade.encode.allocs_per_frame": "count",
	"facade.encode.bytes_per_frame":  "B",
	"tx.unattributed_us_per_frame":   "us",
	"tx.symbols":                     "count",
}
