// Quickstart: sort slices with the public wfsort API.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"wfsort"
)

func main() {
	// Plain ordered types: one call, workers default to GOMAXPROCS.
	nums := []int{42, 7, 19, 3, 88, 7, 0, -5}
	if err := wfsort.Sort(nums); err != nil {
		log.Fatal(err)
	}
	fmt.Println("ints:   ", nums)

	words := []string{"pear", "apple", "fig", "banana"}
	if err := wfsort.Sort(words); err != nil {
		log.Fatal(err)
	}
	fmt.Println("strings:", words)

	// Custom orderings via SortFunc. The sort is stable: equal keys
	// keep their input order.
	type user struct {
		Name string
		Age  int
	}
	users := []user{{"carol", 31}, {"alice", 24}, {"bob", 31}, {"dave", 24}}
	err := wfsort.SortFunc(users, func(a, b user) bool { return a.Age < b.Age })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("users:  ", users)

	// Options: worker count and deterministic seed.
	big := rand.New(rand.NewSource(1)).Perm(100_000)
	err = wfsort.Sort(big,
		wfsort.WithWorkers(8),
		wfsort.WithSeed(7),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("100k elements sorted, first five:", big[:5])
}
