package org.apache.spark.sql

/** The number of queries the cache manager holds, cached or only
  * registered. Its count is `private[sql]`, hence this package.
  */
object CacheEntries {
  def apply(spark: SparkSession): Int = spark.sharedState.cacheManager.numCachedEntries
}
