package main

import (
	"reflect"
	"testing"
)

func TestSeedChangesCandidatesAndModes(t *testing.T) {
	issues := allIssues(false)
	a, again, b := makePlan(1, issues, 2, candidatePool), makePlan(1, issues, 2, candidatePool), makePlan(2, issues, 2, candidatePool)
	if !reflect.DeepEqual(a, again) {
		t.Fatal("the same seed drew two different plans")
	}
	if reflect.DeepEqual(a.cands, b.cands) {
		t.Error("the seed does not change the candidate choice")
	}
	if reflect.DeepEqual(a.sketch, b.sketch) {
		t.Error("the seed does not change the mode draw")
	}
	if !reflect.DeepEqual(a.owners, b.owners) {
		t.Error("issue ownership must not depend on the seed")
	}
}

func TestPlanShape(t *testing.T) {
	issues := allIssues(false)
	p := makePlan(7, issues, 2, candidatePool)
	owned := 0
	for _, o := range p.owners {
		owned += len(o)
		if d := len(o) - len(issues)/2; d < -1 || d > 1 {
			t.Errorf("client owns %d of %d issues, want half", len(o), len(issues))
		}
	}
	if owned != len(issues) {
		t.Errorf("%d issues owned, want %d", owned, len(issues))
	}
	for _, id := range p.issues {
		seen := map[int]bool{}
		for _, j := range p.cands[id] {
			if seen[j] || j < 0 || j >= candidateSpace {
				t.Errorf("%s: candidate index %d repeated or out of range", id, j)
			}
			seen[j] = true
		}
		if len(p.cands[id]) != candidatePool || len(p.sketch[id]) != candidatePool {
			t.Errorf("%s: pool sizes %d/%d, want %d", id, len(p.cands[id]), len(p.sketch[id]), candidatePool)
		}
	}
	// Every cycle asks for sketch mode on exactly half of the issues, and
	// every pair of cycles diagnoses each issue once in each mode.
	for k := 0; k < candidatePool; k++ {
		n := 0
		for _, id := range p.issues {
			if p.sketch[id][k] {
				n++
			}
			if k%2 == 1 && p.sketch[id][k] == p.sketch[id][k-1] {
				t.Errorf("%s: cycles %d and %d use the same mode", id, k-1, k)
			}
		}
		if n != len(issues)/2 {
			t.Errorf("cycle %d: %d sketch rounds, want %d", k, n, len(issues)/2)
		}
	}
}

func TestOfflineSeedOnlyOrdersIssues(t *testing.T) {
	a, b := issueOrder(1, false), issueOrder(2, false)
	ids := func(ws []string) map[string]bool {
		m := map[string]bool{}
		for _, w := range ws {
			m[w] = true
		}
		return m
	}
	var as, bs []string
	for i := range a {
		as, bs = append(as, a[i].ID), append(bs, b[i].ID)
	}
	if reflect.DeepEqual(as, bs) {
		t.Error("the seed does not change the issue order")
	}
	if !reflect.DeepEqual(ids(as), ids(bs)) || len(as) != 18 {
		t.Errorf("orders hold different issues: %v vs %v", as, bs)
	}
	if len(pinnedRanks) != 18 {
		t.Errorf("%d pinned issues, want 18", len(pinnedRanks))
	}
}
