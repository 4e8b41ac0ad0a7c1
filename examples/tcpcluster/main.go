// TCP cluster: three hierlock members communicating over real TCP
// sockets (loopback here; spread the addresses across hosts for a real
// deployment, or run cmd/lockd for a standalone daemon).
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"hierlock"
)

func main() {
	// In a real deployment these addresses come from configuration and
	// every member runs in its own process; here we grab three loopback
	// ports and run all members in one binary.
	addrs := map[int]string{
		0: "127.0.0.1:7411",
		1: "127.0.0.1:7412",
		2: "127.0.0.1:7413",
	}
	members := make([]*hierlock.Member, len(addrs))
	for id := range addrs {
		peers := make(map[int]string)
		for p, a := range addrs {
			if p != id {
				peers[p] = a
			}
		}
		m, err := hierlock.NewTCPMember(hierlock.TCPMemberConfig{
			ID:         id,
			ListenAddr: addrs[id],
			Peers:      peers,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer m.Close()
		members[id] = m
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Every member appends to a shared log under a W lock: strict mutual
	// exclusion across TCP.
	var mu sync.Mutex
	var journal []string
	var wg sync.WaitGroup
	for id, m := range members {
		id, m := id, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				l, err := m.Lock(ctx, "journal", hierlock.W)
				if err != nil {
					log.Fatalf("member %d: %v", id, err)
				}
				mu.Lock()
				journal = append(journal, fmt.Sprintf("entry %d by member %d", len(journal), id))
				mu.Unlock()
				if err := l.Unlock(); err != nil {
					log.Fatalf("member %d: %v", id, err)
				}
			}
		}()
	}
	wg.Wait()

	for _, line := range journal {
		fmt.Println(line)
	}
	fmt.Printf("%d journal entries written under one distributed W lock over TCP\n", len(journal))
}
