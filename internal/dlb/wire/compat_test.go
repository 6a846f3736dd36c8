package wire

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
	"time"
)

// runSpecRetired is RunSpec as a peer that predates three retirements
// still sends it: with the per-slave worker count (Cores), the hook
// fraction and the hook cost.
type runSpecRetired struct {
	Source         string
	Params         map[string]int
	DistDims       map[string]int
	DistLoops      []string
	HookFraction   float64
	HookCostFlops  float64
	Grain          int
	DLB            bool
	Synchronous    bool
	Cores          int
	Kernel         string
	CostModel      string
	Overlap        string
	HeartbeatEvery time.Duration
	FaultSpec      string
}

type startMsgRetired struct {
	Version    int
	Run        string
	Node       int
	Slaves     int
	Total      int
	PlanHash   string
	MasterAddr string
	Spec       runSpecRetired
	Roster     map[int]string
}

// TestStartMsgDropsRetiredSpecFields pins what RunSpec's comment promises:
// removing a field needs no ProtocolVersion bump, because gob drops the
// fields a receiver does not declare and decodes every other one.
func TestStartMsgDropsRetiredSpecFields(t *testing.T) {
	old := startMsgRetired{
		Version: 5, Run: "r-1", Node: 2, Slaves: 3, Total: 4,
		PlanHash: "0123456789abcdef", MasterAddr: "127.0.0.1:7000",
		Spec: runSpecRetired{
			Source: "program p(n) ...", Params: map[string]int{"n": 64},
			DistDims: map[string]int{"a": 0}, DistLoops: []string{"i"},
			HookFraction: 0.01, HookCostFlops: 200, Grain: 3,
			DLB: true, Synchronous: true, Cores: 1,
			Kernel: "aot", CostModel: "learned", Overlap: "off",
			HeartbeatEvery: 500 * time.Millisecond, FaultSpec: "crash:1@0.5",
		},
		Roster: map[int]string{0: "127.0.0.1:7101"},
	}
	want := StartMsg{
		Version: 5, Run: "r-1", Node: 2, Slaves: 3, Total: 4,
		PlanHash: "0123456789abcdef", MasterAddr: "127.0.0.1:7000",
		Spec: RunSpec{
			Source: "program p(n) ...", Params: map[string]int{"n": 64},
			DistDims: map[string]int{"a": 0}, DistLoops: []string{"i"},
			Grain: 3,
			DLB:   true, Synchronous: true,
			Kernel: "aot", CostModel: "learned", Overlap: "off",
			HeartbeatEvery: 500 * time.Millisecond, FaultSpec: "crash:1@0.5",
		},
		Roster: map[int]string{0: "127.0.0.1:7101"},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	var got StartMsg
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatalf("today's StartMsg refuses a peer's retired fields: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded\n %+v\nwant\n %+v", got, want)
	}
	// want sets every field, so the comparison above covers each one.
	for _, v := range []reflect.Value{reflect.ValueOf(want), reflect.ValueOf(want.Spec)} {
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).IsZero() {
				t.Errorf("%s.%s is zero in want: give it a value (and the retired peer's type the field)", v.Type().Name(), v.Type().Field(i).Name)
			}
		}
	}
}
