package main

// pinnedRanks are the Table 3 ranks every offline-table3 run must reproduce
// under the paper protocol (5 normal + 5 buggy runs per issue): the root
// cause's rank under vProf, the hist-disc ablation and the five baselines,
// 0 meaning not ranked (COZ's crash on b7 included). Unresolved issues
// (u1–u3) have no Table 3 extras. They were recorded from the program when
// the benchmark was defined; any change to them is a correctness failure.
var pinnedRanks = map[string]ranks{
	"b1":  {VProf: 2, HistDisc: 13, Gprof: 16, Perf: 17, PerfPT: 17, Coz: 0, StatDebug: 1},
	"b2":  {VProf: 2, HistDisc: 4, Gprof: 12, Perf: 12, PerfPT: 12, Coz: 0, StatDebug: 2},
	"b3":  {VProf: 2, HistDisc: 3, Gprof: 3, Perf: 3, PerfPT: 3, Coz: 0, StatDebug: 5},
	"b4":  {VProf: 1, HistDisc: 11, Gprof: 14, Perf: 14, PerfPT: 14, Coz: 0, StatDebug: 1},
	"b5":  {VProf: 1, HistDisc: 4, Gprof: 13, Perf: 13, PerfPT: 13, Coz: 0, StatDebug: 1},
	"b6":  {VProf: 3, HistDisc: 2, Gprof: 2, Perf: 3, PerfPT: 2, Coz: 0, StatDebug: 1},
	"b7":  {VProf: 2, HistDisc: 15, Gprof: 15, Perf: 15, PerfPT: 15, Coz: 0, StatDebug: 0},
	"b8":  {VProf: 2, HistDisc: 4, Gprof: 3, Perf: 3, PerfPT: 3, Coz: 0, StatDebug: 1},
	"b9":  {VProf: 2, HistDisc: 2, Gprof: 2, Perf: 2, PerfPT: 1, Coz: 2, StatDebug: 8},
	"b10": {VProf: 1, HistDisc: 1, Gprof: 1, Perf: 1, PerfPT: 1, Coz: 0, StatDebug: 2},
	"b11": {VProf: 3, HistDisc: 1, Gprof: 1, Perf: 1, PerfPT: 1, Coz: 0, StatDebug: 3},
	"b12": {VProf: 3, HistDisc: 2, Gprof: 3, Perf: 3, PerfPT: 1, Coz: 0, StatDebug: 1},
	"b13": {VProf: 3, HistDisc: 13, Gprof: 17, Perf: 17, PerfPT: 17, Coz: 0, StatDebug: 0},
	"b14": {VProf: 2, HistDisc: 2, Gprof: 0, Perf: 2, PerfPT: 2, Coz: 0, StatDebug: 3},
	"b15": {VProf: 4, HistDisc: 2, Gprof: 9, Perf: 2, PerfPT: 2, Coz: 0, StatDebug: 2},
	"u1":  {VProf: 4},
	"u2":  {VProf: 1},
	"u3":  {VProf: 1},
}
