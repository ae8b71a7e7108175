package org.apache.spark

import org.apache.spark.storage.BroadcastBlockId

/** The ids of the broadcast variables whose value the driver's block
  * manager holds, leaving out the task binaries Spark broadcasts for every
  * stage (byte arrays, released by its context cleaner). The block manager
  * is `private[spark]`, hence this package.
  */
object LiveBroadcasts {
  def apply(sc: SparkContext): Set[Long] = {
    val bm = sc.env.blockManager
    bm.getMatchingBlockIds(_.isBroadcast).collect {
      case b @ BroadcastBlockId(id, "")
          if bm.getLocalValues(b).exists(r => !r.data.toList.forall(_.isInstanceOf[Array[Byte]])) => id
    }.toSet
  }
}
