package wfsort_test

import (
	"fmt"

	"wfsort"
)

func ExampleSort() {
	nums := []int{42, 7, 19, 3, 88}
	if err := wfsort.Sort(nums); err != nil {
		panic(err)
	}
	fmt.Println(nums)
	// Output: [3 7 19 42 88]
}

func ExampleSortFunc() {
	type user struct {
		name string
		age  int
	}
	users := []user{{"carol", 31}, {"alice", 24}, {"bob", 31}}
	err := wfsort.SortFunc(users, func(a, b user) bool { return a.age < b.age })
	if err != nil {
		panic(err)
	}
	// Stable: bob keeps his place before carol? No — carol came first
	// among the 31s, so she stays first.
	fmt.Println(users)
	// Output: [{alice 24} {carol 31} {bob 31}]
}

func ExampleSort_options() {
	data := []int{5, 2, 9, 1, 7, 3, 8, 4, 6, 0}
	err := wfsort.Sort(data,
		wfsort.WithWorkers(4),
		wfsort.WithSeed(7),
	)
	if err != nil {
		panic(err)
	}
	fmt.Println(data)
	// Output: [0 1 2 3 4 5 6 7 8 9]
}

func ExampleSimulate() {
	// Element i's key is keys[i-1]; keys 0..4 shuffled, so element i's
	// rank is keys[i-1]+1.
	keys := []int{3, 0, 4, 1, 2}
	res, err := wfsort.Simulate(keys,
		wfsort.WithWorkers(5), // the paper's P = N regime
		wfsort.WithSeed(1),
	)
	if err != nil {
		panic(err)
	}
	fmt.Println("ranks:", res.Ranks)
	fmt.Println("contention bounded by P:", res.Metrics.MaxContention <= 5)
	// Output:
	// ranks: [4 1 5 2 3]
	// contention bounded by P: true
}
