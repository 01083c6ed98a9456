package alloc_test

// Runnable godoc examples: `go test` executes them and checks the output, so
// they double as documentation and regression tests.

import (
	"fmt"

	"ssdkeeper/internal/alloc"
)

// ExampleParse shows the paper's strategy notation.
func ExampleParse() {
	for _, name := range []string{"Shared", "7:1", "5:1:1:1", "2:2:2:2"} {
		s, err := alloc.Parse(name, 8)
		if err != nil {
			fmt.Println(err)
			continue
		}
		fmt.Printf("%s -> %s\n", name, s.Name(8))
	}
	// Output:
	// Shared -> Shared
	// 7:1 -> 7:1
	// 5:1:1:1 -> 5:1:1:1
	// 2:2:2:2 -> Isolated
}

// ExampleStrategy_Bind shows how a two-group strategy splits channels
// between write- and read-dominated tenants.
func ExampleStrategy_Bind() {
	s := alloc.Strategy{Kind: alloc.TwoGroup, WriteChannels: 6}
	binding, _ := s.Bind(8, []alloc.TenantTraits{
		{WriteDominated: true},
		{WriteDominated: false},
	})
	fmt.Println("writer:", binding.Channels(0))
	fmt.Println("reader:", binding.Channels(1))
	// Output:
	// writer: [0 1 2 3 4 5]
	// reader: [6 7]
}

// ExampleFourTenantSpace shows the paper's 42-strategy label space.
func ExampleFourTenantSpace() {
	space := alloc.FourTenantSpace(8)
	fmt.Println("strategies:", len(space))
	fmt.Println("first:", space[0].Name(8))
	fmt.Println("last:", space[len(space)-1].Name(8))
	// Output:
	// strategies: 42
	// first: Shared
	// last: 5:1:1:1
}
