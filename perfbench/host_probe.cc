/**
 * @file
 * Host-speed probe. For each line read on stdin it runs one fixed chunk
 * of work (binary-heap event churn plus dependent loads over a 1 MiB
 * table, the access mix of an event-driven simulator) and prints the
 * chunk's elapsed nanoseconds. The driver runs it on the core decasim is
 * pinned to, while decasim is stopped, so the chunk times track how fast
 * that core runs at that moment. The work never changes and
 * uses no repository code, so a change under test cannot move it.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <vector>

int
main()
{
    constexpr std::size_t kTableSize = std::size_t{1} << 17;
    constexpr int kEventsPerChunk = 60000;

    std::vector<std::uint64_t> table(kTableSize);
    std::uint64_t x = 88172645463325252ull;
    for (auto &v : table) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v = x;
    }
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        events;
    for (std::size_t i = 0; i < 2048; ++i)
        events.push(table[i] & 0xffff);

    std::uint64_t acc = 0;
    char line[64];
    while (std::fgets(line, sizeof line, stdin) != nullptr) {
        // Untimed sweep: the table is back in cache whatever decasim
        // evicted, so the chunk time does not depend on its footprint.
        for (const std::uint64_t v : table)
            acc += v;
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kEventsPerChunk; ++i) {
            const std::uint64_t t = events.top();
            events.pop();
            const std::uint64_t v =
                table[(t * 2654435761u + acc) & (kTableSize - 1)];
            acc += v;
            events.push(t + 1 + (v & 1023));
        }
        const auto t1 = std::chrono::steady_clock::now();
        // acc's low bit keeps the chunk from being optimized away.
        std::printf("%lld %d\n",
                    static_cast<long long>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            t1 - t0)
                            .count()),
                    static_cast<int>(acc & 1));
        std::fflush(stdout);
    }
    return 0;
}
