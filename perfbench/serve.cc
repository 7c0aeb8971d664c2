/**
 * @file
 * The serving process of the benchmark. It hosts one VappServer, or
 * a loopback cluster of ClusterNode shards plus one spare shard that
 * a membership change splices in, on fresh archives under a run
 * directory. The load generator drives it over the wire; stdin
 * carries a line-based control channel so the generator can mark the
 * timed window, flush, change membership and stop it:
 *
 *   snap     -> "snap k=v ..."  telemetry counters and archive totals
 *   reset    -> "ok"            zero the telemetry registry
 *   flush    -> "flushed ms"    persist every archive
 *   add      -> "added k=v ..." splice the spare shard in
 *   remove   -> "removed k=v .." take the spare shard out again
 *   stop, or end of input       stop the servers and exit
 */

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "bench.h"
#include "cluster/cluster_node.h"
#include "common/telemetry.h"
#include "rebalance/rebalance.h"

namespace vbench {

namespace {

/** Counters the generator turns into per-layer metrics. */
const char *const kSnapCounters[] = {
    "storage.bch.blocks_decoded",
    "archive.read.blocks_corrected",
    "archive.read.blocks_uncorrectable",
    "archive.bytes_encrypted",
    "server.cache.hits",
    "server.wrong_epoch",
    "server.forwards",
    "server.get.pull_through",
};

/** Timers of the program's own read path, reported as calls and
 * total milliseconds. */
const char *const kSnapTimers[] = {
    "pipeline.merge_streams",
    "pipeline.decode",
};

struct Shard
{
    std::unique_ptr<ArchiveService> service;
    std::unique_ptr<ClusterNode> node;
    std::unique_ptr<VappServer> server;
    ClusterShard address;
};

class ServeProcess
{
  public:
    ServeProcess(int shards, std::size_t cache_bytes, std::string dir)
        : members_(shards), cacheBytes_(cache_bytes),
          dir_(std::move(dir))
    {
    }

    bool
    start()
    {
        const bool cluster = members_ > 1;
        const int total = cluster ? members_ + 1 : 1;
        for (int i = 0; i < total; ++i) {
            Shard shard;
            const std::string path =
                dir_ + "/shard" + std::to_string(i) + ".vapp";
            std::remove(path.c_str());
            shard.service = std::make_unique<ArchiveService>(path);
            if (shard.service->open() != ArchiveError::None)
                return false;
            VappServerConfig config;
            config.cacheBytes = cacheBytes_;
            if (cluster) {
                ClusterNodeConfig node;
                node.selfId = static_cast<u32>(i);
                node.replicas = 2;
                shard.node = std::make_unique<ClusterNode>(
                    *shard.service, node);
                config.cluster = shard.node.get();
            }
            shard.server = std::make_unique<VappServer>(
                *shard.service, config);
            if (!shard.server->start())
                return false;
            shard.address = {static_cast<u32>(i), "127.0.0.1",
                             shard.server->port()};
            shards_.push_back(std::move(shard));
        }
        if (cluster) {
            std::vector<ClusterShard> ring;
            std::vector<ManagedShard> managed;
            for (int i = 0; i < members_; ++i) {
                ring.push_back(shards_[i].address);
                managed.push_back(
                    {shards_[i].address, shards_[i].node.get()});
            }
            for (int i = 0; i < members_; ++i)
                shards_[i].node->setTopology(ring, 1);
            // The spare boots on a ring of its own; the membership
            // manager installs the shared ring when it joins.
            Shard &spare = shards_.back();
            spare.node->setTopology({spare.address}, 1);
            RebalanceConfig rebalance;
            rebalance.replicas = 2;
            manager_ = std::make_unique<MembershipManager>(
                std::move(managed), 1, rebalance);
        }
        return true;
    }

    std::string
    readyLine() const
    {
        std::string line = "ready";
        for (int i = 0; i < members_; ++i)
            line += " " + std::to_string(shards_[i].address.port);
        return line;
    }

    std::string
    snap() const
    {
        auto &registry = telemetry::globalRegistry();
        std::string out = "snap";
        for (const char *name : kSnapCounters)
            out += std::string(" ") + name + "=" +
                   std::to_string(registry.counter(name).value());
        for (const char *name : kSnapTimers) {
            auto &timer = registry.timer(name);
            out += std::string(" ") + name +
                   ".calls=" + std::to_string(timer.calls());
            out += std::string(" ") + name + ".total_ms=" +
                   std::to_string(timer.totalNanoseconds() / 1e6);
        }
        u64 high_water = 0, coalesced = 0, cells = 0, payload = 0,
            meta = 0, pixels = 0, videos = 0;
        for (const Shard &s : shards_) {
            high_water = std::max<u64>(high_water,
                                       s.server->queueHighWater());
            coalesced += s.server->coalescedGets();
            for (const ArchiveVideoStat &v : s.service->stat()) {
                cells += v.cellBytes;
                payload += v.payloadBytes;
                meta += s.service->exportMeta(v.name).size();
                pixels += static_cast<u64>(v.width) * v.height *
                          v.frames;
                ++videos;
            }
        }
        out += " server.queue_high_water=" + std::to_string(high_water);
        out += " server.coalesced_gets=" + std::to_string(coalesced);
        out += " archive.cell_bytes=" + std::to_string(cells);
        out += " archive.payload_bytes=" + std::to_string(payload);
        out += " archive.meta_bytes=" + std::to_string(meta);
        out += " archive.pixels=" + std::to_string(pixels);
        out += " archive.videos=" + std::to_string(videos);
        return out;
    }

    std::string
    flush()
    {
        const auto t0 = Clock::now();
        bool ok = true;
        for (Shard &s : shards_)
            ok = s.service->flush() == ArchiveError::None && ok;
        return (ok ? "flushed " : "flush-failed ") +
               std::to_string(msBetween(t0, Clock::now()));
    }

    /** Splice the spare in (@p add) or take it out again. */
    std::string
    transition(bool add)
    {
        if (!manager_)
            return "error no-cluster";
        // Bytes the transition should move: every record whose owner
        // differs between the rings before and after, at its size
        // in the current owner's archive.
        std::vector<u32> before, after;
        for (const ClusterShard &c : manager_->topology())
            before.push_back(c.id);
        const u32 spare = shards_.back().address.id;
        after = before;
        if (add)
            after.push_back(spare);
        else
            std::erase(after, spare);
        const HashRing ring_before(before, 64), ring_after(after, 64);
        u64 bytes = 0;
        for (const Shard &s : shards_)
            for (const std::string &name : s.service->videoNames())
                if (ring_before.ownerOf(name) !=
                    ring_after.ownerOf(name))
                    bytes += s.service->exportRecord(name).size();

        const auto t0 = Clock::now();
        MigrationReport report =
            add ? manager_->addShard({shards_.back().address,
                                      shards_.back().node.get()})
                : manager_->removeShard(spare);
        const double ms = msBetween(t0, Clock::now());
        return std::string(add ? "added" : "removed") +
               " ms=" + std::to_string(ms) +
               " predicted=" + std::to_string(report.predictedMoves) +
               " planned=" + std::to_string(report.plannedMoves) +
               " moved=" + std::to_string(report.movedRecords) +
               " skipped=" + std::to_string(report.skippedRecords) +
               " failed=" + std::to_string(report.failedRecords) +
               " bytes=" + std::to_string(bytes);
    }

    void
    stop()
    {
        for (Shard &s : shards_)
            s.server->stop();
        for (Shard &s : shards_)
            std::remove(s.service->path().c_str());
    }

  private:
    int members_;
    std::size_t cacheBytes_;
    std::string dir_;
    std::vector<Shard> shards_;
    std::unique_ptr<MembershipManager> manager_;
};

} // namespace

int
serveMain(int shards, std::size_t cache_bytes, const std::string &dir)
{
    ServeProcess serve(shards, cache_bytes, dir);
    if (!serve.start()) {
        std::fprintf(stderr, "serve: start failed\n");
        serve.stop();
        return 1;
    }
    std::printf("%s\n", serve.readyLine().c_str());
    std::fflush(stdout);
    std::string line;
    while (std::getline(std::cin, line)) {
        std::string reply;
        if (line == "snap")
            reply = serve.snap();
        else if (line == "reset") {
            telemetry::globalRegistry().resetAll();
            reply = "ok";
        } else if (line == "flush")
            reply = serve.flush();
        else if (line == "add" || line == "remove")
            reply = serve.transition(line == "add");
        else if (line == "stop")
            break;
        else
            reply = "error unknown-command";
        std::printf("%s\n", reply.c_str());
        std::fflush(stdout);
    }
    serve.stop();
    return 0;
}

} // namespace vbench
